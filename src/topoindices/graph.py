"""Simple undirected graph with degree and neighbor-degree-sum queries.

Vertices are dense 0-based integers with no labels; generators document
their own numbering. Every ``Graph`` is simple, with every neighbor id in
``[0, vertex_count)``, because every public builder checks its input: the
edge-list constructor rejects bad ids and self-loops and merges duplicate
edges, :func:`~topoindices.from_edge_list` checks every line, and the
generators write columns that hold the invariant by construction. No query
checks it again.

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

The tables are counted by exception. A vertex's label depends only on the
degrees of the vertex and of its neighbors, so with ``d0`` the most common
degree, a label can differ from ``(d0, d0 * d0)`` only at a vertex of
another degree or at one of its neighbors. Only those rows are summed, and
only the rows of vertices off the most common label are walked edge by
edge; the rest of the edges are counted from the totals. In ``hanoi(n)``
that is the three corners and their six neighbors out of ``3**n``
vertices; in a graph of scattered degrees it is nearly every vertex, and
the count costs about what counting every slot would.

Graphs are immutable after construction, so every query is read-only and
safe to call concurrently; two threads racing to fill the cache only
compute the same tables twice.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, islice, pairwise, repeat
from operator import add, sub
from types import MappingProxyType

# The two vertex labelings, and the keys of `Graph.edge_classes`
DEGREE = "degree"
NEIGHBOR_SUM = "neighbor_sum"

# (lo, hi) endpoint-label pair -> number of edges in that class
ClassTable = Mapping[tuple[int, int], int]

# Item type of both CSR columns, wide enough for any vertex id or offset.
TYPECODE = "q"


def _flatten(rows: Iterable[Iterable[int]]) -> tuple[array, array]:
    """CSR columns of per-vertex neighbor rows, in one pass over ``rows``."""
    offsets = array(TYPECODE, [0])
    targets = array(TYPECODE)
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return offsets, targets


# Vertex lists are scanned, and CSR columns sliced, this many items at a time.
_BLOCK = 1 << 8


def _runs(flags: bytes | bytearray, base: int = 0) -> list[tuple[int, int]]:
    """The maximal ``[start, end)`` runs of nonzero bytes in ``flags``,
    shifted by ``base``."""
    runs = []
    end = 0
    while (start := flags.find(1, end)) >= 0:
        end = flags.find(0, start)
        if end < 0:
            end = len(flags)
        runs.append((base + start, base + end))
    return runs


def _differing(values: list[int], common: int) -> list[tuple[int, int]]:
    """Runs of the positions where ``values`` holds anything but ``common``.

    A block that holds ``common`` throughout costs one C-level ``count``;
    only the other blocks are compared item by item.
    """
    runs = []
    for start in range(0, len(values), _BLOCK):
        block = values[start : start + _BLOCK]
        if block.count(common) != len(block):
            runs += _runs(bytes(map(common.__ne__, block)), start)
    return runs


def _blocks(runs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """``runs`` cut into ``[start, end)`` pieces of at most ``_BLOCK`` items."""
    for start, end in runs:
        for i in range(start, end, _BLOCK):
            yield i, min(i + _BLOCK, end)


def _pieces(column: Sequence[int], runs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """The items of ``column`` in ``runs``, in order, copied a block at a time."""
    return chain.from_iterable(column[start:end] for start, end in _blocks(runs))


def _slots(offsets: array, runs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The target-slot runs of the rows of the vertex runs ``runs``."""
    return [(offsets[start], offsets[end]) for start, end in runs]


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

        The count is exact and walks only the rows of exceptional vertices.
        A vertex's ``(degree, neighbor_sum)`` label depends only on its own
        degree and its neighbors' degrees. So with ``d0`` the most common
        degree, a label can differ from ``(d0, d0 * d0)`` only in T, the
        vertices of another degree and their neighbors:

        * Labels: T's degrees and neighbor sums are summed over T's rows,
          and each label is ranked to a small id as it is streamed. Every
          vertex outside T gets id 0, the label ``(d0, d0 * d0)``. When
          the rows of the vertices of another degree hold at least as many
          slots as there are vertices of degree ``d0``, T may be every
          vertex; it is then taken to be every vertex, and none is marked.
        * Pairs: only the rows of S, the vertices whose id is not the most
          common one, are counted, one ``source * width + target`` int per
          target slot. A slot from S to a most-common vertex is counted
          twice, for its mirror is in that vertex's row, which is not
          walked, and every other slot joins two most-common vertices. Each
          edge is seen once in each orientation, and the tables halve the
          counts at the end.

        In ``hanoi(n)``, n >= 3, T and S are the three corners and their
        six neighbors. In the double wheel, T is every vertex and S the
        hub, and on an irregular graph both are most of the vertices, so
        the count walks about as many slots as counting every slot would.
        Vertex runs are found a block at a time, so a block without
        exceptions costs one C-level ``count``, and columns are copied a
        block at a time; the degrees and the ids are the only vertex-length
        lists.

        Rows outside T and S are never read, which the invariant of every
        ``Graph`` makes sound: ids are in range, rows are symmetric, and no
        slot is a loop or a repeat.
        """
        if self._classes is not None:
            return self._classes
        offsets, targets = self._offsets, self._targets
        degrees = list(map(sub, islice(offsets, 1, None), offsets))
        vertex_count = len(degrees)
        degree_counts = Counter(degrees)
        d0 = max(degree_counts, key=degree_counts.__getitem__, default=0)

        # T: the vertices of another degree than d0, and their neighbors.
        # Their rows can reach every vertex of degree d0 only if they hold at
        # least as many slots; T is then taken to be every vertex
        d0_count = degree_counts[d0]
        if len(targets) - d0 * d0_count >= d0_count:
            t_runs = [(0, vertex_count)]
        else:
            odd = _differing(degrees, d0)
            odd_slots = _slots(offsets, odd)
            in_t = bytearray(vertex_count)
            for v in chain(_pieces(range(vertex_count), odd), _pieces(targets, odd_slots)):
                in_t[v] = 1
            t_runs = _runs(in_t)
            del in_t

        target_degrees = map(degrees.__getitem__, _pieces(targets, _slots(offsets, t_runs)))
        sums = map(sum, map(islice, repeat(target_degrees), _pieces(degrees, t_runs)))
        # map draws each label, then len(rank), before its lookup, so a new
        # label gets the next id; the None key holds id 0 for the vertices
        # outside T
        rank: dict[tuple[int, int] | None, int] = {None: 0}
        t_ids = map(rank.setdefault, zip(_pieces(degrees, t_runs), sums), map(len, repeat(rank)))
        ids = [0] * vertex_count
        for start, end in _blocks(t_runs):
            ids[start:end] = islice(t_ids, end - start)
        # a label is (degree, neighbor_sum), in the order of these tables
        labels = [(d0, d0 * d0), *islice(rank, 1, None)]
        width = len(labels)

        # S: the vertices off the most common id; only their rows are walked
        id_counts = Counter(_pieces(ids, t_runs))
        id_counts[0] = ids.count(0)
        common = max(id_counts, key=id_counts.__getitem__)
        s_runs = _differing(ids, common)
        s_slots = _slots(offsets, s_runs)
        source_ids = chain.from_iterable(
            map(repeat, map(width.__mul__, _pieces(ids, s_runs)), _pieces(degrees, s_runs))
        )
        pairs = Counter(map(add, source_ids, map(ids.__getitem__, _pieces(targets, s_slots))))
        # a slot from S to a most-common vertex is counted twice, once for
        # its mirror in that vertex's row, which is not walked; the slots
        # left over join two most-common vertices
        rest = len(targets) - sum(end - start for start, end in s_slots)
        for pair in range(common, width * width, width):
            if pair in pairs:
                rest -= pairs[pair]
                pairs[pair] *= 2
        if rest:
            pairs[common * width + common] = rest

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
        """Return ``None`` if the graph is non-empty and connected, else why not."""
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
