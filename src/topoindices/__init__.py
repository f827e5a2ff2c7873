"""Degree-based topological indices of double-wheel and Hanoi graphs.

The library builds the two graph families, computes six indices (randic,
sum_connectivity, abc, ga, abc4, ga5) by direct edge summation or from an
edge partition, evaluates the published closed-form expressions, and
machine-verifies every closed form against the brute-force value,
including flagging the known erratum in the double-wheel abc4 formula.

Importing the package loads none of its modules: each public name is
looked up in its module on first access, so a process compiles only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "closed_forms": (
        "DW",
        "HANOI",
        "ClosedFormResult",
        "Variant",
        "closed_form",
        "dw_closed_form",
        "hanoi_closed_form",
    ),
    "edgelist": ("from_edge_list", "to_edge_list"),
    "generators": ("DW_MAX_N", "HANOI_MAX_N", "double_wheel", "hanoi"),
    "graph": ("DEGREE", "NEIGHBOR_SUM", "Graph"),
    "indices": ("IndexKind", "compute_from_partition", "compute_index", "edge_term"),
    "partition": ("EdgePartition", "degree_partition", "neighbor_sum_partition"),
    "verify": (
        "DEFAULT_TOLERANCE",
        "Erratum",
        "Summary",
        "VerificationEntry",
        "VerificationReport",
        "combine_reports",
        "errata_report",
        "relative_error",
        "verify_all",
        "verify_family",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

# constants first, then classes and functions, as isort orders them
__all__ = sorted(_OWNERS, key=lambda name: (not name.isupper(), name))


def __getattr__(name: str):
    if name in _EXPORTS:
        # a submodule, reachable as an attribute of the package before any
        # import of it, as when the package imported them all
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
