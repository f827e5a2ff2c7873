"""Per-edge weight forms and whole-graph sums for six topological indices.

Four indices weigh an edge by its endpoint degrees:

* ``randic``           : 1 / sqrt(a * b)
* ``sum_connectivity`` : 1 / sqrt(a + b)
* ``abc``              : sqrt((a + b - 2) / (a * b))
* ``ga``               : 2 * sqrt(a * b) / (a + b)

The other two apply the same abc/ga weight forms to neighbor-degree sums
instead of degrees: ``abc4`` reuses the abc form, ``ga5`` the ga form.
Whole-graph values are sums over edges; ``math.fsum`` keeps them exactly
rounded and independent of edge order.
"""

from __future__ import annotations

import enum
import math
from itertools import chain, repeat

from .graph import Graph
from .partition import (
    DEGREE,
    NEIGHBOR_SUM,
    EdgePartition,
    _lookup,
    degree_partition,
    neighbor_sum_partition,
)


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


def compute_index(g: Graph, kind: IndexKind) -> float:
    """Index value by brute force: one term per edge, grouped by class.

    Every edge contributes its own copy of its class's term, and
    ``math.fsum`` rounds the whole multiset once, so the value is
    bit-identical to summing edge by edge in any order. Unlike
    :func:`compute_from_partition`, no ``count * term`` product is rounded.
    """
    degree_classes, sum_classes = g.edge_classes()
    classes = degree_classes if kind.labeling == DEGREE else sum_classes
    return math.fsum(
        chain.from_iterable(
            repeat(edge_term(kind, a, b), count) for (a, b), count in classes.items()
        )
    )


def compute_from_partition(p: EdgePartition, kind: IndexKind) -> float:
    """Index value from a partition table: class count times class weight."""
    if p.mode != kind.labeling:
        raise ValueError(
            f"{kind.value} needs a {kind.labeling} partition, got {p.mode}"
        )
    return math.fsum(
        count * edge_term(kind, lo, hi) for (lo, hi), count in p.sorted_items()
    )


def matching_partition(g: Graph, kind: IndexKind) -> EdgePartition:
    """The edge partition whose mode matches the index's labeling."""
    if kind.labeling == DEGREE:
        return degree_partition(g)
    return neighbor_sum_partition(g)
