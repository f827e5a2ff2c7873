"""Simple undirected graph with degree and neighbor-degree-sum queries.

Vertices are dense 0-based integers with no labels; generators document
their own numbering. Adjacency has set semantics (no self-loops, no
parallel edges). Graphs are immutable after construction, so every query
is read-only and safe to call concurrently. The one derived value, the
edge-class tables of :meth:`Graph.edge_classes`, is cached on first use;
two threads racing to fill it only compute the same tables twice.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from types import MappingProxyType

# (lo, hi) endpoint-label pair -> number of edges in that class
ClassTable = Mapping[tuple[int, int], int]


class Graph:
    """Immutable simple undirected graph over vertices ``0..vertex_count-1``."""

    __slots__ = ("_adj", "_classes")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {vertex_count})"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._classes: tuple[ClassTable, ClassTable] | None = None

    @classmethod
    def from_adjacency(cls, adjacency: Iterable[Iterable[int]]) -> Graph:
        """Build directly from per-vertex neighbor collections, unchecked.

        Serves generators whose construction already guarantees the
        invariants, and lets malformed graphs (asymmetric adjacency,
        self-loops) be constructed and then diagnosed with :meth:`validate`.
        Other callers should use the edge-list constructor, which enforces
        the invariants up front.
        """
        g = object.__new__(cls)
        g._adj = tuple(frozenset(ns) for ns in adjacency)
        g._classes = None
        return g

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of vertices adjacent to ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbor_degree_sum(self, v: int) -> int:
        """Sum of the degrees of all neighbors of ``v``."""
        self._check_vertex(v)
        adj = self._adj
        return sum(len(adj[u]) for u in adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """Every edge exactly once as ``(u, v)`` with ``u < v``, sorted."""
        return [
            (u, v)
            for u in range(len(self._adj))
            for v in sorted(self._adj[u])
            if u < v
        ]

    def edge_classes(self) -> tuple[ClassTable, ClassTable]:
        """Edge counts per degree pair and per neighbor-degree-sum pair.

        Each edge is classified by the labels of its two endpoints, keyed
        ``(lo, hi)`` with ``lo <= hi``; empty classes are absent. The tables
        are computed once, in one pass over the adjacency, and returned as
        read-only views of the cache.
        """
        if self._classes is not None:
            return self._classes
        adj = self._adj
        degrees = [len(nbrs) for nbrs in adj]
        degree_of = degrees.__getitem__
        labels = [(d, sum(map(degree_of, nbrs))) for d, nbrs in zip(degrees, adj)]
        # Count each edge u < v under its ordered label pair, then fold
        # (a, b) and (b, a) together; distinct pairs are usually few.
        pairs = Counter(
            (labels[u], labels[v]) for u, nbrs in enumerate(adj) for v in nbrs if u < v
        )
        by_degree: dict[tuple[int, int], int] = {}
        by_sum: dict[tuple[int, int], int] = {}
        for ((du, su), (dv, sv)), count in pairs.items():
            for table, a, b in ((by_degree, du, dv), (by_sum, su, sv)):
                key = (a, b) if a <= b else (b, a)
                table[key] = table.get(key, 0) + count
        classes = (MappingProxyType(by_degree), MappingProxyType(by_sum))
        self._classes = classes
        return classes

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def validate(self) -> str | None:
        """Return ``None`` if valid and connected, else the first violation found.

        Checks, in order: at least one vertex, neighbor ids in range, no
        self-loops, symmetric adjacency, connectivity.
        """
        n = len(self._adj)
        for v, nbrs in enumerate(self._adj):
            for u in nbrs:
                if not (0 <= u < n):
                    return f"vertex {v} lists out-of-range neighbor {u}"
                if u == v:
                    return f"self-loop at vertex {v}"
                if v not in self._adj[u]:
                    return (
                        f"asymmetric adjacency: {u} is a neighbor of {v} "
                        f"but {v} is not a neighbor of {u}"
                    )
        return self._connectivity_problem()

    def _connectivity_problem(self) -> str | None:
        """Return ``None`` if the graph is non-empty and connected, else why not.

        Assumes every neighbor id is in range.
        """
        adj = self._adj
        n = len(adj)
        if n == 0:
            return "graph has no vertices"
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        if len(seen) != n:
            return (
                f"graph is disconnected: {len(seen)} of {n} vertices "
                "reachable from vertex 0"
            )
        return None

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._adj)):
            raise ValueError(f"vertex id {v} out of range [0, {len(self._adj)})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count}, edge_count={self.edge_count()})"
