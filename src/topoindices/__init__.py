"""Degree-based topological indices of double-wheel and Hanoi graphs.

The library builds the two graph families, computes six indices (randic,
sum_connectivity, abc, ga, abc4, ga5) by direct edge summation or from an
edge partition, evaluates the published closed-form expressions, and
machine-verifies every closed form against the brute-force value,
including flagging the known erratum in the double-wheel abc4 formula.
"""

from .closed_forms import (
    DW,
    HANOI,
    ClosedFormResult,
    Variant,
    closed_form,
    dw_closed_form,
    hanoi_closed_form,
)
from .generators import DW_MAX_N, HANOI_MAX_N, double_wheel, from_edge_list, hanoi, to_edge_list
from .graph import Graph
from .indices import (
    IndexKind,
    compute_from_partition,
    compute_index,
    edge_term,
    matching_partition,
)
from .partition import (
    DEGREE,
    NEIGHBOR_SUM,
    EdgePartition,
    degree_partition,
    neighbor_sum_partition,
)
from .verify import (
    DEFAULT_TOLERANCE,
    Erratum,
    Summary,
    VerificationEntry,
    VerificationReport,
    brute_force_value,
    combine_reports,
    errata_report,
    relative_error,
    verify_all,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEGREE",
    "DW",
    "DW_MAX_N",
    "HANOI",
    "HANOI_MAX_N",
    "NEIGHBOR_SUM",
    "ClosedFormResult",
    "EdgePartition",
    "Erratum",
    "Graph",
    "IndexKind",
    "Summary",
    "Variant",
    "VerificationEntry",
    "VerificationReport",
    "brute_force_value",
    "closed_form",
    "combine_reports",
    "compute_from_partition",
    "compute_index",
    "degree_partition",
    "double_wheel",
    "dw_closed_form",
    "edge_term",
    "errata_report",
    "from_edge_list",
    "hanoi",
    "hanoi_closed_form",
    "matching_partition",
    "neighbor_sum_partition",
    "relative_error",
    "to_edge_list",
    "verify_all",
    "verify_family",
]
