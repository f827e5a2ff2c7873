"""Generators for the double-wheel and Hanoi graph families, plus edge-list I/O.

Vertex numbering is part of the contract so fixtures stay stable:

* ``double_wheel(n)``: hub = vertex 0, inner ring = ``1..n``, outer ring =
  ``n+1..2n``; ring vertices are consecutive around each cycle.
* ``hanoi(n)``: a vertex is a puzzle state of the n-disc, 3-peg puzzle.
  Writing one base-3 digit per disc, smallest disc first and most
  significant, the vertex id is the value of that numeral. The three
  all-on-one-peg states are therefore ``0``, ``(3**n - 1) // 2`` and
  ``3**n - 1``.

The Hanoi graph is built from its self-similar structure rather than by
enumerating moves: H_n is three copies of H_(n-1), one per peg of the
largest disc, joined by three bridge edges, the moves of the largest disc
(A. M. Hinz, S. Klavžar, U. Milutinović and C. Petr, *The Tower of Hanoi --
Myths and Maths*, Birkhäuser, 2013). Under the numbering above, vertex
``3*u + p`` is state ``u`` of the smaller discs with the largest disc on
peg ``p``.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Iterator
from itertools import accumulate, chain, islice

from .graph import TYPECODE, Graph, _flatten

# Size caps of the generators, so that no build the CLI allows passes 1 GB
# resident (peaks measured with getrusage on a 64-bit Linux build of
# CPython 3.11).
#
# 3**13 is about 1.6M vertices and 2.4M edges. Building hanoi(13) peaks at
# 77 MB resident, and computing all six indices on it at 90 MB; each
# further disc triples that.
HANOI_MAX_N = 13

# double_wheel(10**6) has 2M + 1 vertices and 4M edges. `compute` peaks at
# 125 MB resident; `generate`, which also holds the edge-list text, at
# 329 MB; `compute --edges` on the 48.7 MB file `generate` writes, at 488 MB
# (two to three runs each).
DW_MAX_N = 10**6


def _require_int(n: object) -> None:
    # bool is an int subclass, but hanoi(True) is a typo, not a size
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an int, got {type(n).__name__} {n!r}")


def double_wheel(n: int) -> Graph:
    """Two disjoint n-cycles whose vertices all join a common hub.

    The result has ``2n + 1`` vertices and ``4n`` edges; the hub has degree
    ``2n`` and every ring vertex has degree 3. The CSR columns are written
    directly: the hub's row is ``1..2n``, each ring vertex's row is hub,
    previous, next.
    """
    _require_int(n)
    if n < 3:
        raise ValueError(f"double_wheel requires n >= 3, got {n} (a ring of size {n} is not a cycle)")
    if n > DW_MAX_N:
        raise ValueError(f"double_wheel size cap is n <= {DW_MAX_N}, got {n}")
    ring = 2 * n
    # one allocation; the hub slot of each ring row stays 0
    targets = array(TYPECODE, [0]) * (4 * ring)
    targets[:ring] = array(TYPECODE, range(1, ring + 1))
    # ring vertex v = 1..2n: previous v - 1, next v + 1, wrapped within its cycle
    targets[ring + 1 :: 3] = array(TYPECODE, range(ring))
    targets[ring + 2 :: 3] = array(TYPECODE, range(2, ring + 2))
    for first in (1, n + 1):
        last = first + n - 1
        targets[ring + 3 * first - 2] = last
        targets[ring + 3 * last - 1] = first
    offsets = array(TYPECODE, chain((0,), range(ring, 4 * ring + 1, 3)))
    return Graph._from_csr(offsets, targets)


def hanoi(n: int) -> Graph:
    """State graph of the n-disc, 3-peg puzzle.

    Vertices are the ``3**n`` disc placements; two states are adjacent iff
    one legal move transforms one into the other. The result has
    ``3 * (3**n - 1) // 2`` edges, exactly three degree-2 vertices (the
    all-on-one-peg states), and degree 3 everywhere else.

    Built level by level from H_1, the triangle. Level k copies H_(k-1)
    once per peg ``p`` of the new largest disc: each edge ``{u, w}``
    becomes ``{3u+p, 3w+p}``. The largest disc can move between pegs ``p``
    and ``q`` only when every smaller disc sits on the third peg ``r``, in
    state ``c = r * (3**(k-1) - 1) // 2``; those three moves are the bridge
    edges ``{3c+p, 3c+q}`` (Hinz et al., 2013).

    Every row is 3 slots wide while the levels are built; the three
    degree-2 corners hold a pad in slot 2. A level first copies each row
    of the previous one three times, one strided slice assignment per peg
    and slot: ``new[3p+j::9]`` is slot ``j`` of every row of copy ``p``.
    It then maps every id ``u`` of copy ``p`` to ``3u+p`` with big-int lane
    arithmetic: each block of ``_LANE_BLOCK`` bytes, read as one integer in
    the native byte order of the array, becomes ``block * 3 + pegs``, where
    ``pegs`` holds ``p`` in every 8-byte lane of copy ``p`` (a 9-lane
    period). Pads are 0, since a negative lane would borrow from the next,
    and every lane holds an id below ``3**(k-1)``, so ``3u+p`` stays below
    ``3**k`` and no lane ever carries into the next. Each padded corner
    slot of a copy is either where a bridge lands or one of the three
    slots deleted at the end, so a pad's value is never read.
    """
    _require_int(n)
    if n < 1:
        raise ValueError(f"hanoi requires n >= 1, got {n}")
    if n > HANOI_MAX_N:
        raise ValueError(f"hanoi size cap is n <= {HANOI_MAX_N}, got {n}")
    rows = array(TYPECODE, [1, 2, 0, 0, 2, 0, 0, 1, 0])
    for k in range(2, n + 1):
        new = array(TYPECODE, [0]) * (3 * len(rows))
        for j in (0, 1, 2):
            column = rows[j::3]
            for p in (0, 1, 2):
                new[3 * p + j :: 9] = column
        del column
        rows = new
        _triple_and_shift(rows)
        all_on_one = (3 ** (k - 1) - 1) // 2
        for r, p, q in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            c = 3 * r * all_on_one
            rows[3 * (c + p) + 2] = c + q
            rows[3 * (c + q) + 2] = c + p
    size = 3**n
    corners = (0, (size - 1) // 2, size - 1)
    degrees = array(TYPECODE, [3]) * size
    for c in reversed(corners):
        del rows[3 * c + 2]
        degrees[c] = 2
    return Graph._from_csr(array(TYPECODE, accumulate(degrees, initial=0)), rows)


# `pegs` over 2048 periods of 9 lanes, each lane holding the peg of its copy.
# `_triple_and_shift` rewrites a level `_LANE_BLOCK` bytes at a time, so that
# every block but a level's last shares one `pegs` integer.
_PEGS = (array(TYPECODE, [0, 0, 0, 1, 1, 1, 2, 2, 2]) * 2048).tobytes()
_LANE_BLOCK = len(_PEGS)
_PEGS_INT = int.from_bytes(_PEGS, sys.byteorder)


def _triple_and_shift(rows: array) -> None:
    """Map lane ``i`` of ``rows`` from ``u`` to ``3u + (i % 9) // 3``, in place.

    Every lane must hold an id in ``[0, 3**HANOI_MAX_N)``, far below
    ``2**63 // 3``, so ``3u + 2`` fits its lane and no lane carries.
    """
    order = sys.byteorder
    with memoryview(rows).cast("B") as raw:
        size = len(raw)
        for start in range(0, size, _LANE_BLOCK):
            end = min(start + _LANE_BLOCK, size)
            if end - start == _LANE_BLOCK:
                pegs = _PEGS_INT
            else:
                pegs = int.from_bytes(_PEGS[: end - start], order)
            block = int.from_bytes(raw[start:end], order) * 3 + pegs
            raw[start:end] = block.to_bytes(end - start, order)


# Characters of edge-list text split into lines at a time, so that no list
# of every line is held: about 5000 lines, a few hundred kB of str objects.
_READ_CHUNK = 1 << 16

# A line boundary of `str.splitlines`, with "\r\n" matched whole; compiled on
# first use, so a process that reads no edge list never compiles it.
_LINE_BREAK = "\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"


def _line_chunks(text: str) -> Iterator[list[str]]:
    """``text.splitlines()`` in consecutive pieces, one chunk of text at a time.

    Each chunk but the last ends just after the first line boundary at
    least ``_READ_CHUNK`` characters past its start, whatever the kind of
    boundary; ``"\\r\\n"`` stays whole, so the pieces join to the same lines.
    """
    line_break = re.compile(_LINE_BREAK)
    start = 0
    while start < len(text):
        cut = line_break.search(text, start + _READ_CHUNK)
        end = cut.end() if cut else len(text)
        yield text[start:end].splitlines()
        start = end


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text into a validated, connected :class:`Graph`.

    Format: one edge per line as two whitespace-separated 0-based vertex
    ids; lines starting with ``#`` and blank lines are ignored; the vertex
    count is the largest id plus one. Lines break as in ``str.splitlines``.

    Each line is checked as it is read: the field count, integer ids,
    non-negative ids, no self-loop, and an id no larger than the number of
    input lines. A connected graph on ``V`` vertices needs at least
    ``V - 1`` edges, so a larger id means a disconnected graph; it is
    rejected before any vertex is allocated. Each edge is appended to both
    endpoints' rows, one ``array`` of 8-byte ids per vertex, so rows are
    symmetric and ids in range by construction. The text is split into
    lines a chunk at a time, so no list of all its lines is built.

    Duplicate edges (in either orientation) are found after the last line,
    as rows longer than their set of ids. Only then, or when a line fails
    a check, are the lines read again to name the first duplicate, so the
    first bad line raises ``ValueError`` naming it, whatever its fault.
    The rows then make a simple graph, which is built from them without a
    second check; last, :meth:`Graph.validate` checks that it is non-empty
    and connected.
    """
    line_count = sum(map(len, _line_chunks(text)))
    adj: list[array] = []
    for lineno, raw in enumerate(chain.from_iterable(_line_chunks(text)), start=1):
        try:
            a, b = raw.split()
            u, v = int(a), int(b)
        except ValueError:
            # the rare lines: blank, comment or malformed
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            what = "expected two vertex ids" if len(parts) != 2 else "vertex ids must be integers"
            raise _line_error(text, lineno, f"{what}, got {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise _line_error(text, lineno, f"vertex ids must be non-negative, got {raw.strip()!r}")
        if u == v:
            raise _line_error(text, lineno, f"self-loop at vertex {u}")
        hi = u if u > v else v
        if hi >= len(adj):
            if hi > line_count:
                raise _line_error(
                    text,
                    lineno,
                    f"vertex id {hi} is larger than the number of input lines ({line_count}), "
                    f"so the graph is disconnected: a connected graph on {hi + 1} vertices "
                    f"needs at least {hi} edges",
                )
            adj.extend([array(TYPECODE) for _ in range(hi + 1 - len(adj))])
        adj[u].append(v)
        adj[v].append(u)
    if sum(map(len, map(set, adj))) != sum(map(len, adj)):
        raise ValueError(_first_duplicate(text, line_count))
    g = Graph._from_csr(*_flatten(adj))
    problem = g.validate()
    if problem is not None:
        raise ValueError(problem)
    return g


def _first_duplicate(text: str, stop: int) -> str | None:
    """The error for the first duplicate edge in the first ``stop`` lines
    of ``text``, or ``None``.

    Each of those lines must have passed the per-line checks.
    """
    seen: set[tuple[int, int]] = set()
    lines = islice(chain.from_iterable(_line_chunks(text)), stop)
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        u, v = map(int, parts)
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            return f"line {lineno}: duplicate edge {edge}"
        seen.add(edge)
    return None


def _line_error(text: str, lineno: int, problem: str) -> ValueError:
    """The error for a fault found on line ``lineno``, unless a duplicate
    edge on an earlier line comes first."""
    return ValueError(_first_duplicate(text, lineno - 1) or f"line {lineno}: {problem}")


# Vertices whose lines are formatted and joined at a time, so that no
# whole-graph list of pairs or lines is held.
_WRITE_BATCH = 4096


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text; inverse of :func:`from_edge_list`.

    One ``u v`` line per edge with ``u < v``, sorted, as :meth:`Graph.edges`
    lists them. Each row is sorted whole, however long.
    """
    offsets, targets = g._offsets, g._targets
    n = g.vertex_count
    return "".join(
        "".join(
            [
                f"{u} {v}\n"
                for u in range(start, min(start + _WRITE_BATCH, n))
                for v in sorted(targets[offsets[u] : offsets[u + 1]])
                if u < v
            ]
        )
        for start in range(0, n, _WRITE_BATCH)
    )
