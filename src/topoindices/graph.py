"""Simple undirected graph with degree and neighbor-degree-sum queries.

Vertices are dense 0-based integers with no labels; generators document
their own numbering. Every ``Graph`` is simple, with every neighbor id in
``[0, vertex_count)``, because every public builder checks its input. The
constructor and :func:`~topoindices.from_edge_list` both hand one flat
column of endpoint ids to one CSR builder. The constructor first rejects
bad ids and self-loops and merges duplicate edges. The parser first checks
the ids' range, and afterwards walks the columns with :func:`_walk`, which
names the rows that list an id twice, as a self-loop or a duplicate edge
leaves them; it rejects the text if there is one. Neither the builder
nor the walk holds an int object per vertex: their per-vertex lists hold
CPython's cached small ints, a row's count of filled slots or a stamp
below 256. The generators write columns that hold the invariant by
construction. No query checks it again, and :meth:`Graph.validate` uses
the same walk only to check that a graph is connected.

The graph is stored in CSR (compressed sparse rows) form, two flat
``array`` columns of signed 32-bit ints and nothing per vertex. Every id
and offset the generator caps allow is below ``2**31``, and
:func:`_csr` refuses a graph whose vertex count or slot count is not:

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

The tables are counted by exception, as :meth:`Graph.edge_classes`
describes: only the rows of the vertices off the most common label are
walked. No degree is stored there either: each is read as
``offsets[v + 1] - offsets[v]``. The count keeps its P mask and its label
ids in block columns (:mod:`topoindices.columns`), in which a block that
holds one value throughout is a shared one, so on the two families it
adds no byte per vertex to the graph, only a reference per 256 vertices.

Graphs are immutable after construction, so every query is read-only and
safe to call concurrently; two threads racing to fill the cache only
compute the same tables twice.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, chain, compress, cycle, islice, pairwise, repeat, starmap, tee
from operator import add, itemgetter, sub
from types import MappingProxyType

from .columns import BLOCK as _BLOCK
from .columns import ONES, Runs, differing, fill, lookup, pieces, runs_off, set_ones, write, zeros

# The two vertex labelings, and the keys of `Graph.edge_classes`
DEGREE = "degree"
NEIGHBOR_SUM = "neighbor_sum"

# (lo, hi) endpoint-label pair -> number of edges in that class
ClassTable = Mapping[tuple[int, int], int]

# Item type of both CSR columns: 4-byte signed ints, which hold every vertex
# id and offset up to `_MAX_ITEM`.
TYPECODE = "i"
_MAX_ITEM = (1 << 8 * array(TYPECODE).itemsize - 1) - 1


def _csr(vertex_count: int, ends: Sequence[int]) -> tuple[array, array]:
    """CSR columns of the edges ``(ends[0], ends[1]), (ends[2], ends[3]), ...``.

    Every id must be in ``[0, vertex_count)``. A counting sort: the offsets
    come from the degrees at their exact size, then each edge goes into both
    endpoints' rows, so a row lists its neighbors in the order of ``ends``.
    A loop ``(u, u)`` or a repeated edge leaves a repeated id in a row.

    ``filled[u]`` counts the slots of ``u``'s row written so far, and the
    next one is ``offsets[u] + filled[u]``. No per-vertex list holds an
    offset: a count below 257 is one of CPython's cached small ints, so the
    degree list and ``filled`` hold 8 bytes per vertex and no int object
    but a wide row's.

    Raises ``ValueError``, before allocating anything, when ``vertex_count``
    or ``len(ends)``, the largest offset, does not fit a ``TYPECODE`` item.
    """
    if vertex_count > _MAX_ITEM or len(ends) > _MAX_ITEM:
        raise ValueError(
            f"graph too large: {vertex_count} vertices and {len(ends)} edge ends, "
            f"but the CSR columns hold at most {_MAX_ITEM} of each"
        )
    degrees = [0] * vertex_count
    for v in ends:
        degrees[v] += 1
    # summed straight into an array; its copy drops the spare room the
    # array grew with
    offsets = array(TYPECODE, accumulate(degrees, initial=0))[:]
    del degrees
    filled = [0] * vertex_count
    targets = array(TYPECODE, [0]) * len(ends)
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        i = filled[u]
        targets[offsets[u] + i] = v
        filled[u] = i + 1
        i = filled[v]
        targets[offsets[v] + i] = u
        filled[v] = i + 1
    return offsets, targets


# The stamps of `_walk`: a row's reading count in its component, mod 256,
# so that every stamp is a cached small int.
_STAMPS = range(256)


def _walk(offsets: array, targets: array) -> tuple[int, set[int]]:
    """Walk every component of the CSR columns, vertex 0's first.

    Returns the number of vertices in vertex 0's component, 0 when there are
    none, and the set of rows that list some id twice, as a self-loop or a
    repeated edge leaves them. Every id must be in ``[0, vertex_count)``.

    One stamp per vertex: ``last[u]`` is the stamp of the row that last
    listed ``u``, or -1 while no row has. Each row is read once, when the
    walk reaches its vertex, and is stamped with the number of rows of its
    component read before it, mod 256. An id that meets -1 is reached for
    the first time. A row that lists an id twice meets its own stamp at the
    second, so it is flagged; so is a row that meets the stamp of a row read
    a multiple of 256 rows before it, and a component's first vertex,
    stamped 0 as its own row is, when its row lists it. Each flagged row is
    read once more against a ``bytearray`` mark of its ids, which keeps
    only the rows that do list an id twice. Once vertex 0's component is
    walked, the next vertex still at -1 starts the next component, until
    none is left.

    ``last`` is a list, not an ``array``, because CPython specializes list
    indexing: the walk takes about half the time. Every stamp is a cached
    small int, so the walk holds 8 bytes per vertex in ``last``, 4 per
    vertex of the component being walked, in an ``array``, a byte per
    vertex in the mark, and no int object per vertex. Rows are read through
    a view of ``targets``, so that a hub's row is not copied.
    """
    vertex_count = len(offsets) - 1
    last = [-1] * vertex_count
    flagged: set[int] = set()
    reached = 0
    start = 0
    with memoryview(targets) as view:
        while start < vertex_count:
            last[start] = 0
            # every vertex of the component, in the order the walk reaches it
            component = array(TYPECODE, [start])
            append = component.append
            for v, stamp in zip(component, cycle(_STAMPS)):
                for u in view[offsets[v] : offsets[v + 1]]:
                    seen = last[u]
                    if seen < 0:
                        append(u)
                    elif seen == stamp:
                        flagged.add(v)
                    last[u] = stamp
            if start == 0:
                reached = len(component)
            try:
                start = last.index(-1, start + 1)
            except ValueError:
                break
        repeats: set[int] = set()
        mark = bytearray(vertex_count)
        for v in flagged:
            row = view[offsets[v] : offsets[v + 1]]
            for u in row:
                if mark[u]:
                    repeats.add(v)
                    break
                mark[u] = 1
            for u in row:
                mark[u] = 0
    return reached, repeats


def _connectivity_problem(vertex_count: int, reached: int) -> str | None:
    """Why a graph of ``vertex_count`` vertices, ``reached`` of them in vertex
    0's component, is not non-empty and connected; ``None`` if it is."""
    if vertex_count == 0:
        return "graph has no vertices"
    if reached != vertex_count:
        return (
            f"graph is disconnected: {reached} of {vertex_count} vertices "
            "reachable from vertex 0"
        )
    return None


# Bytes in one CSR item, the 4-byte lane of the lane arithmetic below.
_LANE = array(TYPECODE).itemsize
# One in every lane of a block, as an integer in the native byte order of
# the columns.
_ONES = int.from_bytes(array(TYPECODE, [1]) * _BLOCK, sys.byteorder)


def _odd_degrees(offsets: array, after: memoryview) -> tuple[Counter[int], int, Runs]:
    """The number of vertices of each degree, ``d0``, the most common one,
    the first met of a tie, and the runs of the vertices of another degree.
    ``after`` is the view of ``offsets`` one item on.

    A block of degrees comes out of one big-int subtraction: the block's
    slice of ``offsets`` shifted by one item, read as a single integer in
    the native byte order, minus the unshifted slice. Offsets never
    decrease, so no 4-byte lane borrows from the next, and each lane of the
    difference is one degree, at most the largest offset, which its
    signed 4-byte item keeps below ``2**31``. A block whose lanes all equal
    its first degree is counted with one comparison against that degree
    times ``_ONES``; a short last block fails it unless its degrees are all
    0. Only the other blocks are converted back to bytes and counted as an
    ``array``. Once ``d0`` is known, the blocks of another degree or of
    several are read again, from ``after`` less ``offsets``, for the runs.
    """
    order = sys.byteorder
    vertex_count = len(after)
    counts: Counter[int] = Counter()
    # each block's one degree, or -1 when its degrees differ
    alike = []
    with memoryview(offsets).cast("B") as raw:
        for start in range(0, vertex_count, _BLOCK):
            end = min(start + _BLOCK, vertex_count)
            lo, hi = start * _LANE, end * _LANE
            lanes = int.from_bytes(raw[lo + _LANE : hi + _LANE], order)
            lanes -= int.from_bytes(raw[lo:hi], order)
            first = after[start] - offsets[start]
            if lanes == first * _ONES:
                counts[first] += end - start
            else:
                counts.update(array(TYPECODE, lanes.to_bytes(hi - lo, order)))
                first = -1
            alike.append(first)
    d0 = max(counts, key=counts.__getitem__, default=0)
    odd = []
    for start in compress(range(0, vertex_count, _BLOCK), map(d0.__ne__, alike)):
        # the last block's slice of `after` ends with the column
        degrees = map(sub, after[start : start + _BLOCK], offsets[start : start + _BLOCK])
        odd += runs_off(degrees, d0, start)
    return counts, d0, odd


def _as_run(row: Sequence[int], own: int) -> range | None:
    """The span ``range(lo, hi)`` of the non-empty ``row`` of vertex ``own``
    when the row lists every id of it but, at most, ``own``; else ``None``.

    No row of a ``Graph`` repeats an id or lists its own vertex, so a row is
    one run, or one run with only ``own`` missing, exactly when its span
    holds its length of ids, and one more when ``own`` lies inside it: two
    C-level reductions and no sort.
    """
    lo = min(row)
    hi = max(row) + 1
    return range(lo, hi) if hi - lo == len(row) + (lo < own < hi) else None


def _without(runs: Runs, point: int) -> Runs:
    """``runs`` with the id ``point`` taken out; ``-1``, in no run, takes out
    none. The run that holds ``point`` splits in two, and an empty side is
    dropped."""
    out = []
    for start, end in runs:
        out += ((start, point), (point + 1, end)) if start <= point < end else ((start, end),)
    return [run for run in out if run[0] < run[1]]


def _slots(offsets: array, runs: Runs) -> Runs:
    """The target-slot runs of the rows of the vertex runs ``runs``."""
    return [(offsets[start], offsets[end]) for start, end in runs]


def _degrees(offsets: array, after: memoryview, runs: Runs) -> Iterator[int]:
    """The degrees of the vertices in ``runs``, in order: the items of
    ``after``, the view of ``offsets`` one item on, less those of
    ``offsets``, copied a block at a time."""
    return map(sub, pieces(after, runs), pieces(offsets, runs))


class Graph:
    """Immutable simple undirected graph over vertices ``0..vertex_count-1``."""

    __slots__ = ("_offsets", "_targets", "_classes")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        """The graph on ``vertex_count`` vertices with these ``edges``.

        Each edge is a pair of ids in ``[0, vertex_count)``, in either
        orientation; an id out of range or a self-loop raises ``ValueError``.
        Duplicate edges are merged, through a set of ``(lo, hi)`` pairs, so
        rows list their neighbors in that set's order. A graph too large for
        the CSR columns, see :func:`_csr`, raises ``ValueError`` too.
        """
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        pairs: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {vertex_count})"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            pairs.add((u, v) if u < v else (v, u))
        # a list, so that `_csr` checks the sizes before any id is stored
        # in a TYPECODE item
        ends = list(chain.from_iterable(pairs))
        self._offsets, self._targets = _csr(vertex_count, ends)
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
        degree and its neighbors' degrees. With ``d0`` the most common
        degree, ``neighbor_sum(v)`` is ``d0 * deg(v)`` plus ``deg(u) - d0``
        for each neighbor ``u`` of another degree, so a label can differ
        from ``(d0, d0 * d0)`` only at those vertices and their neighbors:

        * Span: the hub is the first vertex of the highest degree, when that
          degree is above ``d0``. When its row lists every id of its span
          ``[lo, hi)`` but, at most, the hub's own (:func:`_as_run`), the hub
          adds its ``deg - d0`` to the sum of every vertex of the span, its
          own too, and the span is labeled ``(d0, d0 * d0 + deg - d0)``,
          id 1, each whole block of it by the shared block of 1. The hub's
          own label, id 2, is written over its slot after: its sum is
          ``offsets[hi] - offsets[lo]``, the slots of its span's rows, less
          ``deg`` when the span holds the hub. Only this one row is
          tested: the double wheel has one hub, and ``hanoi(n)`` none above
          ``d0``.
        * Pulls: P, the other vertices of another degree, the hub too when
          its row is no span, and the targets of their rows, sum their
          neighbors' degrees over their own rows, as they are streamed;
          their labels replace those of the span. Each label is ranked to a
          small id as it is found, and every vertex left unlabeled keeps id
          0, the label ``(d0, d0 * d0)``.
        * Pairs: only the rows of S, the vertices whose id is not the most
          common one, are counted, one ``source * width + target`` int per
          target slot, and the hub's span row as one count of its span's
          ids less its own: those off the most common id are the ids of S
          inside the span, and the most common id is counted as the rest.
          A slot from S to a most-common vertex is
          counted twice, for its mirror is in that vertex's row, which is
          not walked, and every other slot joins two most-common vertices.
          Each edge is seen once in each orientation, and the tables halve
          the counts at the end.

        In ``hanoi(n)``, n >= 3, P and S are the three corners and their six
        neighbors. In the double wheel, the hub's row is a span, whatever
        the hub's id, so P is empty and S is the hub: no ring vertex's row
        is read. A second hub is pulled with its targets. On an irregular
        graph P and S are most of the vertices, so the count walks about as
        many slots as counting every slot would. Vertex runs are found a
        block at a time, so a block without exceptions costs one comparison,
        and columns are copied a block at a time.

        No degree is stored. The runs off ``d0`` and the degree counts come
        from the lane pass of :func:`_odd_degrees`, and each other degree
        the count needs, of the hub, P, S and P's targets, is
        ``offsets[v + 1] - offsets[v]``, read through a view of ``offsets``
        one item on. No column is a byte per vertex either. The P mask and
        then the ids, one at a time, are block columns: a list of one
        block per 256 vertices, each the shared block of 0 or of 1 until a
        write to part of it copies it. P's runs are read from the mask's
        blocks other than 0's, so each lies in one block, and its labels
        are written there in one slice. A block of labels is copied to a
        ``bytearray``, or to a list once one of its ids passes 255: a list,
        not an ``array``, because it indexes about twice as fast, and such
        an id is the int ``rank`` holds, shared by every vertex of its
        label. S's runs are read from the blocks of ids other than the
        common one's, and its ids and its targets' ids are looked up by
        C-level calls alone. In ``hanoi(13)`` the columns are two lists of
        6,228 references, one at a time, and a handful of copied blocks.

        No other row is read but the hub's, tested for a span, which the
        invariant of every ``Graph`` makes sound: ids are in range, rows are
        symmetric, and no slot is a loop or a repeat. ``d0``, the hub and
        the most common id choose only which rows are read, never the
        tables: each step is exact for any ``d0``, any hub and any common
        id, so a tie broken the other way costs more or less, and counts
        the same.
        """
        if self._classes is not None:
            return self._classes
        offsets, targets = self._offsets, self._targets
        vertex_count = len(offsets) - 1
        # each degree is read from `offsets` and `after`, its view one item on
        with memoryview(offsets)[1:] as after:
            _, d0, odd = _odd_degrees(offsets, after)
            # The hub: the first vertex of the highest degree, which max
            # keeps of equal keys, when that degree is above d0. If its row
            # lists every id of its span [lo, hi) but, at most, its own, it
            # adds deg - d0 to the neighbor sum of every vertex of the span,
            # its own too, whose label is written over later; if not, the hub
            # is pulled like the other vertices of another degree
            odd_vertices = zip(_degrees(offsets, after, odd), pieces(range(vertex_count), odd))
            deg, hub = max(odd_vertices, key=itemgetter(0), default=(0, 0))
            span = None
            if deg > d0:
                with memoryview(targets) as view:
                    span = _as_run(view[offsets[hub] : offsets[hub + 1]], hub)
            spanned = hub if span else -1

            # P, the vertices whose neighbor sums are pulled from their rows:
            # the vertices of another degree, but for a hub whose row is a
            # span, and the targets of their rows
            p_runs = _without(odd, spanned)
            in_p = zeros(vertex_count)
            p_vertices = pieces(range(vertex_count), p_runs)
            set_ones(in_p, chain(p_vertices, pieces(targets, _slots(offsets, p_runs))))
            p_runs = _without(differing(in_p, 0, vertex_count), spanned)
            del in_p

            # Labels, each ranked to a small id: (d0, d0 * d0 + deg - d0)
            # over the hub's span, then the hub's own, then P's, streamed.
            # The hub's sum is the slot count of its span's rows, less its
            # own degree when the span holds its id. `counts` counts the ids
            # written, less those that P's blocks replace
            rank = {(d0, d0 * d0): 0}
            ids = zeros(vertex_count)
            counts = Counter({0: vertex_count})
            if span:
                inside = hub in span
                rank[d0, d0 * d0 + deg - d0] = 1
                rank[deg, offsets[span.stop] - offsets[span.start] - deg * inside] = 2
                fill(ids, span.start, span.stop, ONES)
                write(ids, hub, b"\x02")
                counts = Counter({0: vertex_count - len(span) - 1 + inside, 1: len(span) - inside, 2: 1})
            # P is empty in the double wheel, and builds no stream
            if p_runs:
                # each target twice, for the end and the start of its row
                ends, starts = tee(pieces(targets, _slots(offsets, p_runs)))
                target_degrees = map(sub, map(after.__getitem__, ends), map(offsets.__getitem__, starts))
                sums = map(sum, map(islice, repeat(target_degrees), _degrees(offsets, after, p_runs)))
                # map draws each label, then len(rank), before its lookup, so a
                # new label gets the next id
                p_labels = zip(_degrees(offsets, after, p_runs), sums)
                p_ids = map(rank.setdefault, p_labels, map(len, repeat(rank)))
                # P's runs lie in blocks, as the mask's runs do
                for start, end in p_runs:
                    block = list(islice(p_ids, end - start))
                    counts.subtract(write(ids, start, block))
                    counts.update(block)
            # a label is (degree, neighbor_sum), in the order of these tables
            labels = list(rank)
            width = len(labels)

            # S: the vertices off the most common id; only their rows are
            # walked, a hub's span row as one count of its span's ids, its
            # own left out
            common = max(counts, key=counts.__getitem__)
            pairs: Counter[int] = Counter()
            walked = 0
            s_runs = _without(differing(ids, common, vertex_count), spanned)
            # the hub's id is 2, as written above
            if span and common != 2:
                # the span's ids off the common one are those of S inside
                # it; the common id is counted as the rest of the span
                source = 2 * width
                in_span = list(filter(span.__contains__, pieces(range(vertex_count), s_runs)))
                pairs.update(map(source.__add__, lookup(ids, in_span, [(0, len(in_span))])))
                if n_common := len(span) - inside - len(in_span):
                    pairs[source + common] = n_common
                walked = deg
            s_slots = _slots(offsets, s_runs)
            s_ids = lookup(ids, range(vertex_count), s_runs)
            source_ids = chain.from_iterable(
                map(repeat, map(width.__mul__, s_ids), _degrees(offsets, after, s_runs))
            )
            pairs.update(map(add, source_ids, lookup(ids, targets, s_slots)))
        # a slot from S to a most-common vertex is counted twice, once for
        # its mirror in that vertex's row, which is not walked; the slots
        # left over join two most-common vertices; sub(start, end) is the
        # length of a slot run, negated
        rest = len(targets) - walked + sum(starmap(sub, s_slots))
        for pair in range(common, width * width, width):
            if pair in pairs:
                rest -= pairs[pair]
                pairs[pair] *= 2
        if rest:
            pairs[common * width + common] = rest

        degree_table: dict[tuple[int, int], int] = {}
        sum_table: dict[tuple[int, int], int] = {}
        for pair, count in pairs.items():
            source, target = divmod(pair, width)
            (a, s), (b, t) = labels[source], labels[target]
            key = (a, b) if a <= b else (b, a)
            degree_table[key] = degree_table.get(key, 0) + count
            key = (s, t) if s <= t else (t, s)
            sum_table[key] = sum_table.get(key, 0) + count
        # each edge was counted once in each orientation
        for table in (degree_table, sum_table):
            for key in table:
                table[key] //= 2
        classes = MappingProxyType(
            {DEGREE: MappingProxyType(degree_table), NEIGHBOR_SUM: MappingProxyType(sum_table)}
        )
        self._classes = classes
        return classes

    def edge_count(self) -> int:
        return len(self._targets) // 2

    def validate(self) -> str | None:
        """Return ``None`` if the graph is non-empty and connected, else why not.

        Connectivity is read from one :func:`_walk` of the columns, the
        walk the edge-list parser makes to find repeated ids.
        """
        reached, _ = _walk(self._offsets, self._targets)
        return _connectivity_problem(self.vertex_count, reached)

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
