"""Edge partitions keyed by unordered endpoint-label pairs.

Each edge is classified by the pair of labels of its two endpoints, where
the label is either the vertex degree or the neighbor-degree sum. Keys are
normalized so ``lo <= hi``; counts cover every edge and empty classes are
never stored. The tables come from :meth:`Graph.edge_classes`, computed once
per graph; each partition holds its own copy, free to mutate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

DEGREE = "degree"
NEIGHBOR_SUM = "neighbor_sum"


@dataclass(frozen=True)
class EdgePartition:
    """Counts of edges per unordered label pair, under one labeling mode."""

    mode: str
    classes: dict[tuple[int, int], int]

    def total(self) -> int:
        """Number of edges covered; equals the source graph's edge count."""
        return sum(self.classes.values())

    def sorted_items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.classes.items())


def degree_partition(g: Graph) -> EdgePartition:
    """Classify every edge by its endpoint degrees."""
    return EdgePartition(DEGREE, dict(g.edge_classes()[0]))


def neighbor_sum_partition(g: Graph) -> EdgePartition:
    """Classify every edge by its endpoint neighbor-degree sums."""
    return EdgePartition(NEIGHBOR_SUM, dict(g.edge_classes()[1]))
