"""Per-edge weight forms and whole-graph sums for six topological indices.

Four indices weigh an edge by its endpoint degrees:

* ``randic``           : 1 / sqrt(a * b)
* ``sum_connectivity`` : 1 / sqrt(a + b)
* ``abc``              : sqrt((a + b - 2) / (a * b))
* ``ga``               : 2 * sqrt(a * b) / (a + b)

The other two apply the same abc/ga weight forms to neighbor-degree sums
instead of degrees: ``abc4`` reuses the abc form, ``ga5`` the ga form.
Whole-graph values are sums over edges, taken one class of equal terms
at a time. Both evaluators use one rule: each class adds ``count * term``
exactly, in integers, and the total is rounded to a float once. The value
is therefore the correctly rounded sum of every edge's term, the same bits
as ``math.fsum`` over the edges in any order, whichever evaluator computed
it.
"""

from __future__ import annotations

import enum
import math

from .graph import DEGREE, NEIGHBOR_SUM, ClassTable, Graph
from .partition import EdgePartition, _lookup


class IndexKind(enum.Enum):
    RANDIC = "randic"
    SUM_CONNECTIVITY = "sum_connectivity"
    ABC = "abc"
    GA = "ga"
    ABC4 = "abc4"
    GA5 = "ga5"

    @property
    def labeling(self) -> str:
        """Which vertex label the index weighs: degree or neighbor_sum."""
        if self in (IndexKind.ABC4, IndexKind.GA5):
            return NEIGHBOR_SUM
        return DEGREE

    @classmethod
    def parse(cls, name: str) -> IndexKind:
        """Look up a kind by name; hyphens, case and surrounding spaces are forgiven."""
        return _lookup("index", name, {kind.value: kind for kind in cls})


def edge_term(kind: IndexKind, a: int, b: int) -> float:
    """Weight contributed by one edge whose endpoint labels are ``a`` and ``b``.

    Symmetric in ``(a, b)``. Labels must be positive; on a valid connected
    graph both degrees and neighbor-degree sums always are, so the guard
    only protects generic callers.
    """
    if a < 1 or b < 1:
        raise ValueError(f"edge labels must be positive, got ({a}, {b})")
    if kind is IndexKind.RANDIC:
        return 1.0 / math.sqrt(a * b)
    if kind is IndexKind.SUM_CONNECTIVITY:
        return 1.0 / math.sqrt(a + b)
    if kind in (IndexKind.ABC, IndexKind.ABC4):
        return math.sqrt((a + b - 2) / (a * b))
    return 2.0 * math.sqrt(a * b) / (a + b)


def _class_sum(kind: IndexKind, classes: ClassTable) -> float:
    """Correctly rounded sum of ``count * edge_term(kind, lo, hi)`` over the classes.

    A float term is exactly ``num / den`` with ``den`` a power of two, so
    every product, scaled to the largest ``den``, is an exact int. The one
    ``int / int`` division at the end rounds correctly.
    """
    ratios = [
        (count, *edge_term(kind, lo, hi).as_integer_ratio())
        for (lo, hi), count in classes.items()
    ]
    scale = max((den for _, _, den in ratios), default=1)
    return sum(count * num * (scale // den) for count, num, den in ratios) / scale


def compute_index(g: Graph, kind: IndexKind) -> float:
    """Index value by brute force: every edge's term, summed class by class.

    :meth:`Graph.edge_classes` counts the edges per endpoint-label pair
    under the index's labeling, and each class adds its count times its
    term exactly; the value is bit-identical to summing edge by edge, in
    any order, with ``math.fsum``.
    """
    return _class_sum(kind, g.edge_classes()[kind.labeling])


def compute_from_partition(p: EdgePartition, kind: IndexKind) -> float:
    """Index value from a partition table: class count times class weight.

    Summed by the same exact rule as :func:`compute_index`, so the
    partition of a graph under the index's labeling gives the same bits.
    """
    if p.mode != kind.labeling:
        raise ValueError(
            f"{kind.value} needs a {kind.labeling} partition, got {p.mode}"
        )
    return _class_sum(kind, p.classes)
