"""Generators for the double-wheel and Hanoi graph families.

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

import sys
from array import array
from itertools import pairwise

from .graph import TYPECODE, Graph

# Size caps of the generators, so that no build the CLI allows passes 1 GB
# resident (peaks measured with getrusage on a 64-bit Linux build of
# CPython 3.11).
#
# 3**13 is about 1.6M vertices and 2.4M edges. Building hanoi(13) peaks at
# 39 MB resident, and `compute --index all` on it at 42 MB (three runs
# each); each further disc triples that.
HANOI_MAX_N = 13

# double_wheel(10**6) has 2M + 1 vertices and 4M edges. `compute` peaks at
# 67 MB resident; `generate`, which writes the edge-list text in pieces, at
# 61 MB; `compute --edges` on the 48.7 MB file `generate` writes, at 207 MB,
# with a duplicate edge appended or not (two runs each).
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
    targets[:ring] = _progression(1, 1, ring)
    # ring vertex v = 1..2n: previous v - 1, next v + 1, wrapped within its cycle
    targets[ring + 1 :: 3] = _progression(0, 1, ring)
    targets[ring + 2 :: 3] = _progression(2, 1, ring)
    for first in (1, n + 1):
        last = first + n - 1
        targets[ring + 3 * first - 2] = last
        targets[ring + 3 * last - 1] = first
    # 0, then ring, ring + 3, ..., 4 * ring: the hub's row, then 3 slots a vertex
    offsets = _progression(ring - 3, 3, ring + 2)
    offsets[0] = 0
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
    degree-2 corners hold a pad in slot 2. A level first takes the three
    slot columns ``rows[j::3]`` of the previous one and frees it, so that
    only those columns and the new level are held at once. It copies each
    column three times, one strided slice assignment per peg and slot:
    slice ``3p+j::9`` of the new level is slot ``j`` of every row of copy
    ``p``. It then maps every id ``u`` of copy ``p`` to ``3u+p`` with
    big-int lane arithmetic: each block of ``_LANE_BLOCK`` bytes, read as
    one integer in the native byte order of the array, becomes
    ``block * 3 + pegs``, where ``pegs`` holds ``p`` in every 4-byte lane
    of copy ``p`` (a 9-lane period). Pads are 0, since a negative lane
    would borrow from the next, and every lane holds an id below
    ``3**(k-1)``, so ``3u+p`` stays below ``3**k <= 3**HANOI_MAX_N``, far
    below ``2**31``, and no lane ever carries into the next. Each padded
    corner slot of a copy is either where a bridge lands or one of the
    three slots deleted at the end, so a pad's value is never read.

    Every vertex but the corners has degree 3, so the offsets are written
    directly, with no degree array: ``offsets[v]`` is ``3v`` minus the
    number of corners below ``v``. Each run of vertices between two corners
    is written a block of up to ``_OFFSETS_BLOCK`` items at a time, as one
    step-3 :func:`_progression` block, made once per build, plus the
    block's first item in every lane.
    """
    _require_int(n)
    if n < 1:
        raise ValueError(f"hanoi requires n >= 1, got {n}")
    if n > HANOI_MAX_N:
        raise ValueError(f"hanoi size cap is n <= {HANOI_MAX_N}, got {n}")
    rows = array(TYPECODE, [1, 2, 0, 0, 2, 0, 0, 1, 0])
    for k in range(2, n + 1):
        columns = [rows[j::3] for j in (0, 1, 2)]
        del rows
        rows = array(TYPECODE, [0]) * (9 * len(columns[0]))
        for j, column in enumerate(columns):
            for p in (0, 1, 2):
                rows[3 * p + j :: 9] = column
        del columns, column
        _triple_and_shift(rows)
        all_on_one = (3 ** (k - 1) - 1) // 2
        for r, p, q in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            c = 3 * r * all_on_one
            rows[3 * (c + p) + 2] = c + q
            rows[3 * (c + q) + 2] = c + p
    size = 3**n
    corners = (0, (size - 1) // 2, size - 1)
    for c in reversed(corners):
        del rows[3 * c + 2]
    # one run per corner: the vertices after it, up to the next corner, a
    # block of `lanes` items at a time, no more than the longest run holds;
    # each block is 0, 3, 6, ..., made once, plus its first item in every
    # lane, one big-int add
    order = sys.byteorder
    lanes = min(_OFFSETS_BLOCK, size // 2)
    steps = int.from_bytes(_progression(0, 3, lanes).tobytes(), order)
    ones = int.from_bytes(array(TYPECODE, [1]).tobytes() * lanes, order)
    offsets = array(TYPECODE, [0]) * (size + 1)
    width = offsets.itemsize
    with memoryview(offsets).cast("B") as raw:
        for below, (first, last) in enumerate(pairwise((*corners, size)), start=1):
            for start in range(first + 1, last + 1, lanes):
                block = (steps + (3 * start - below) * ones).to_bytes(lanes * width, order)
                end = min(start + lanes, last + 1)
                raw[start * width : end * width] = block[: (end - start) * width]
    return Graph._from_csr(offsets, rows)


# Items of a `_progression` column written by one big-int add, and of
# `hanoi`'s offsets, so that no run's column is held beside them.
_OFFSETS_BLOCK = 1 << 14

# Items of a `_progression` column written from a `range`: below a few
# hundred items, doubling costs more than it saves.
_HEAD = 256


def _progression(start: int, step: int, count: int) -> array:
    """``array(TYPECODE, range(start, start + count * step, step))``, written
    with big-int lane arithmetic a block of ``_OFFSETS_BLOCK`` items at a time.

    The first ``_HEAD`` items are written from the ``range``, and the rest of
    the first block by doubling: the items so far, read as one integer in
    the native byte order of the array, plus ``len * step`` in every lane,
    are the next as many items. Each further block is the one before plus
    the block's span, ``_OFFSETS_BLOCK * step``, in every lane, one big-int
    add. ``start`` and ``step`` must be non-negative and every lane of every
    block, the last block's lanes past ``count`` included, below ``2**31``,
    so that no lane carries into the next.
    """
    column = array(TYPECODE, range(start, start + min(count, _HEAD) * step, step))
    if count <= _HEAD:
        return column
    order = sys.byteorder
    width = column.itemsize
    size = min(count, _OFFSETS_BLOCK) * width
    block = column.tobytes()
    ones = array(TYPECODE, [1]).tobytes() * _HEAD
    while len(block) < size:
        part = min(len(block), size - len(block))
        shift = len(block) // width * step * int.from_bytes(ones[:part], order)
        block += (int.from_bytes(block[:part], order) + shift).to_bytes(part, order)
        ones += ones[:part]
    column = array(TYPECODE, block)
    value = int.from_bytes(block, order)
    span = _OFFSETS_BLOCK * step * int.from_bytes(ones, order)
    for done in range(_OFFSETS_BLOCK, count, _OFFSETS_BLOCK):
        value += span
        column.frombytes(value.to_bytes(size, order)[: (count - done) * width])
    return column


# `pegs` over 2048 periods of 9 lanes, each lane holding the peg of its copy.
# `_triple_and_shift` rewrites a level `_LANE_BLOCK` bytes at a time, so that
# every block but a level's last shares one `pegs` integer.
_PEGS = (array(TYPECODE, [0, 0, 0, 1, 1, 1, 2, 2, 2]) * 2048).tobytes()
_LANE_BLOCK = len(_PEGS)
_PEGS_INT = int.from_bytes(_PEGS, sys.byteorder)


def _triple_and_shift(rows: array) -> None:
    """Map lane ``i`` of ``rows`` from ``u`` to ``3u + (i % 9) // 3``, in place.

    Every lane must hold an id in ``[0, 3**(HANOI_MAX_N - 1))``, as every id
    of a level below the top one does, so ``3u + 2`` is below
    ``3**HANOI_MAX_N``, far below ``2**31``: it fits its signed 4-byte lane,
    and no lane carries into the next.
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


def __getattr__(name: str):
    # The edge-list reader and writer live in `edgelist`, which is loaded on
    # first use; callers that look them up in this module still find them.
    if name in ("from_edge_list", "to_edge_list"):
        from . import edgelist

        return getattr(edgelist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
