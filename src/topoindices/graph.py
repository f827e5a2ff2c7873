"""Simple undirected graph with degree and neighbor-degree-sum queries.

Vertices are dense 0-based integers with no labels; generators document
their own numbering. Adjacency has set semantics (no self-loops, no
parallel edges).

The graph is stored in CSR (compressed sparse rows) form, two flat
``array`` columns of signed 64-bit ints and nothing per vertex:

* ``offsets``, ``vertex_count + 1`` entries: vertex ``v``'s neighbors are
  ``targets[offsets[v]:offsets[v + 1]]``, so its degree is
  ``offsets[v + 1] - offsets[v]``;
* ``targets``, ``2 * edge_count`` entries: each edge appears once in each
  endpoint's row.

Rows are kept in the order their builder wrote them, and that order is not
part of a graph's identity: ``==`` and ``hash`` compare each row as a set,
so graphs built by different paths are equal when their edges are.
Everything else is derived from the two arrays on demand: the sorted edge
list, the per-vertex reads, and the edge-class tables of
:meth:`Graph.edge_classes`, one per vertex labeling, keyed by the
labeling's name (:data:`DEGREE` or :data:`NEIGHBOR_SUM`). The tables are
the one derived value that is cached, on first use.

Graphs are immutable after construction, so every query is read-only and
safe to call concurrently; two threads racing to fill the cache only
compute the same tables twice.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, islice, pairwise, repeat
from operator import add, sub
from types import MappingProxyType

# The two vertex labelings, and the keys of `Graph.edge_classes`
DEGREE = "degree"
NEIGHBOR_SUM = "neighbor_sum"

# (lo, hi) endpoint-label pair -> number of edges in that class
ClassTable = Mapping[tuple[int, int], int]

# Item type of both CSR columns, wide enough for any vertex id or offset. No
# builder writes a negative value; the type stays signed so that
# `Graph.from_adjacency` can hold a negative id and `Graph.validate` name it.
TYPECODE = "q"


def _flatten(rows: Iterable[Iterable[int]]) -> tuple[array, array]:
    """CSR columns of per-vertex neighbor rows, in one pass over ``rows``."""
    offsets = array(TYPECODE, [0])
    targets = array(TYPECODE)
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return offsets, targets


class Graph:
    """Immutable simple undirected graph over vertices ``0..vertex_count-1``."""

    __slots__ = ("_offsets", "_targets", "_classes")

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
        self._offsets, self._targets = _flatten(adj)
        self._classes: Mapping[str, ClassTable] | None = None

    @classmethod
    def from_adjacency(cls, adjacency: Iterable[Iterable[int]]) -> Graph:
        """Build directly from per-vertex neighbor rows, unchecked.

        ``adjacency`` is read once, so a generator of rows will do. Serves
        generators whose construction already guarantees the invariants,
        and lets malformed graphs (asymmetric adjacency, self-loops, a
        neighbor listed twice) be constructed and then diagnosed with
        :meth:`validate`. Other callers should use the edge-list
        constructor, which enforces the invariants up front.
        """
        return cls._from_csr(*_flatten(adjacency))

    @classmethod
    def _from_csr(cls, offsets: array, targets: array) -> Graph:
        """The graph with these CSR columns, taken over without a copy."""
        g = object.__new__(cls)
        g._offsets = offsets
        g._targets = targets
        g._classes = None
        return g

    @property
    def vertex_count(self) -> int:
        return len(self._offsets) - 1

    def _rows(self) -> Iterator[array]:
        targets = self._targets
        return (targets[a:b] for a, b in pairwise(self._offsets))

    def _row(self, v: int) -> array:
        self._check_vertex(v)
        return self._targets[self._offsets[v] : self._offsets[v + 1]]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._row(v))

    def degree(self, v: int) -> int:
        """Number of vertices adjacent to ``v``."""
        self._check_vertex(v)
        return self._offsets[v + 1] - self._offsets[v]

    def neighbor_degree_sum(self, v: int) -> int:
        """Sum of the degrees of all neighbors of ``v``."""
        offsets = self._offsets
        return sum(offsets[u + 1] - offsets[u] for u in self._row(v))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge exactly once as ``(u, v)`` with ``u < v``, sorted."""
        return [
            (u, v)
            for u, row in enumerate(self._rows())
            for v in sorted(row)
            if u < v
        ]

    def edge_classes(self) -> Mapping[str, ClassTable]:
        """Edge counts per endpoint-label pair, one table per labeling.

        The result maps :data:`DEGREE` to the counts per degree pair and
        :data:`NEIGHBOR_SUM` to the counts per neighbor-degree-sum pair.
        Each edge is classified by the labels of its two endpoints, keyed
        ``(lo, hi)`` with ``lo <= hi``; empty classes are absent. The tables
        are computed once; the mapping and both tables are read-only views
        of the cache.

        Every step but the last is a C-level pass over the arrays. Each
        vertex's neighbor sum adds up the next ``degree`` items of one
        shared stream of target degrees, which are its own row's. Its
        ``(degree, neighbor_sum)`` label is ranked to a small id as it is
        streamed, so the ``Counter`` counts small ints, one per target slot:
        each edge is seen once in each orientation, and the tables halve the
        counts at the end. The degrees and the ids are the only
        vertex-length lists; no list of sums or labels is held.
        """
        if self._classes is not None:
            return self._classes
        offsets, targets = self._offsets, self._targets
        degrees = list(map(sub, islice(offsets, 1, None), offsets))
        target_degrees = map(degrees.__getitem__, targets)
        sums = map(sum, map(islice, repeat(target_degrees), degrees))
        # map draws each label, then len(rank), before its lookup, so a new
        # label gets the next id
        rank: dict[tuple[int, int], int] = {}
        ids = list(map(rank.setdefault, zip(degrees, sums), map(len, repeat(rank))))
        width = len(rank)
        source_ids = chain.from_iterable(map(repeat, map(width.__mul__, ids), degrees))
        pairs = Counter(map(add, source_ids, map(ids.__getitem__, targets)))

        labels = list(rank)
        # a label is (degree, neighbor_sum), in the order of these tables
        tables: dict[str, dict[tuple[int, int], int]] = {DEGREE: {}, NEIGHBOR_SUM: {}}
        for pair, count in pairs.items():
            source, target = divmod(pair, width)
            for table, a, b in zip(tables.values(), labels[source], labels[target]):
                key = (a, b) if a <= b else (b, a)
                table[key] = table.get(key, 0) + count
        classes = MappingProxyType({
            mode: MappingProxyType({key: count // 2 for key, count in table.items()})
            for mode, table in tables.items()
        })
        self._classes = classes
        return classes

    def edge_count(self) -> int:
        return len(self._targets) // 2

    def validate(self) -> str | None:
        """Return ``None`` if valid and connected, else the first violation found.

        Checks, vertex by vertex and in row order: neighbor ids in range, no
        self-loops, no neighbor listed twice; then symmetric adjacency, and
        finally at least one vertex and connectivity.
        """
        n = self.vertex_count
        arcs: set[int] = set()
        for v, row in enumerate(self._rows()):
            for u in row:
                if not (0 <= u < n):
                    return f"vertex {v} lists out-of-range neighbor {u}"
                if u == v:
                    return f"self-loop at vertex {v}"
                if v * n + u in arcs:
                    return f"vertex {v} lists neighbor {u} twice"
                arcs.add(v * n + u)
        for v, row in enumerate(self._rows()):
            for u in row:
                if u * n + v not in arcs:
                    return (
                        f"asymmetric adjacency: {u} is a neighbor of {v} "
                        f"but {v} is not a neighbor of {u}"
                    )
        return self._connectivity_problem()

    def _connectivity_problem(self) -> str | None:
        """Return ``None`` if the graph is non-empty and connected, else why not.

        Assumes every neighbor id is in range.
        """
        offsets, targets = self._offsets, self._targets
        n = self.vertex_count
        if n == 0:
            return "graph has no vertices"
        seen = bytearray(n)
        seen[0] = 1
        reached = 1
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in targets[offsets[v] : offsets[v + 1]]:
                    if not seen[u]:
                        seen[u] = 1
                        nxt.append(u)
            reached += len(nxt)
            frontier = nxt
        if reached != n:
            return (
                f"graph is disconnected: {reached} of {n} vertices "
                "reachable from vertex 0"
            )
        return None

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex id {v} out of range [0, {self.vertex_count})")

    def _sorted_targets(self) -> array:
        """``targets`` with each row sorted: the identity of the graph's edges."""
        return array(TYPECODE, chain.from_iterable(map(sorted, self._rows())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._offsets == other._offsets
            and self._sorted_targets() == other._sorted_targets()
        )

    def __hash__(self) -> int:
        return hash((self._offsets.tobytes(), self._sorted_targets().tobytes()))

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count}, edge_count={self.edge_count()})"
