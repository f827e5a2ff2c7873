"""Edge partitions keyed by unordered endpoint-label pairs.

Each edge is classified by the pair of labels of its two endpoints, where
the label is either the vertex degree or the neighbor-degree sum. Keys are
normalized so ``lo <= hi``; counts cover every edge and empty classes are
never stored. A partition's mode is the labeling's name, :data:`DEGREE` or
:data:`NEIGHBOR_SUM`, and its table is the one :meth:`Graph.edge_classes`
holds under that name, computed once per graph; each partition holds its
own copy, free to mutate.
"""

from __future__ import annotations

from typing import NamedTuple, TypeVar

from .graph import DEGREE, NEIGHBOR_SUM, Graph

_T = TypeVar("_T")


def _lookup(what: str, name: str, table: dict[str, _T]) -> _T:
    """``table[name]`` with case, hyphens and surrounding spaces forgiven;
    ``ValueError`` lists the known names. The one lookup for index kinds,
    closed-form variants and partition modes."""
    key = name.strip().lower().replace("-", "_")
    if key not in table:
        raise ValueError(f"unknown {what} {name!r} (known: {', '.join(table)})")
    return table[key]


class EdgePartition(NamedTuple):
    """Counts of edges per unordered label pair, under one labeling mode."""

    mode: str
    classes: dict[tuple[int, int], int]

    def total(self) -> int:
        """Number of edges covered; equals the source graph's edge count."""
        return sum(self.classes.values())

    def sorted_items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.classes.items())


def _partition(g: Graph, mode: str) -> EdgePartition:
    return EdgePartition(mode, dict(g.edge_classes()[mode]))


def degree_partition(g: Graph) -> EdgePartition:
    """Classify every edge by its endpoint degrees."""
    return _partition(g, DEGREE)


def neighbor_sum_partition(g: Graph) -> EdgePartition:
    """Classify every edge by its endpoint neighbor-degree sums."""
    return _partition(g, NEIGHBOR_SUM)
