"""Generators for the double-wheel and Hanoi graph families.

Vertex numbering is part of the contract so fixtures stay stable:

* ``double_wheel(n)``: hub = vertex 0, inner ring = ``1..n``, outer ring =
  ``n+1..2n``; ring vertices are consecutive around each cycle.
* ``hanoi(n)``: a vertex is a puzzle state of the n-disc, 3-peg puzzle.
  Writing one base-3 digit per disc, smallest disc first and most
  significant, the vertex id is the value of that numeral. The three
  all-on-one-peg states are therefore ``0``, ``(3**n - 1) // 2`` and
  ``3**n - 1``.

The Hanoi graph is written by the digit rule rather than by searching
the puzzle's moves (A. M. Hinz, S. Klavžar, U. Milutinović and C. Petr,
*The Tower of Hanoi -- Myths and Maths*, Birkhäuser, 2013): the moves of
one disc between two pegs take a range of ids that share a prefix of
digits to that range shifted by a constant, so each slot column of the CSR
is a few arithmetic runs.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from itertools import pairwise

from .graph import _LANE, TYPECODE, Graph

# Size caps of the generators, so that no build the CLI allows passes 1 GB
# resident (peaks are the ru_maxrss of the command's own process, from
# os.wait4, on a 64-bit Linux build of CPython 3.11, three runs each).
#
# 3**13 is about 1.6M vertices and 2.4M edges. Building hanoi(13) peaks at
# 39 MB resident, and `compute --index all` on it at 41 MB; each further
# disc triples that.
HANOI_MAX_N = 13

# double_wheel(10**6) has 2M + 1 vertices and 4M edges. `compute` peaks at
# 55 MB resident; `generate`, which writes the edge-list text in pieces, at
# 61 MB; `compute --edges` on the 48.7 MB file `generate` writes, at 161 MB,
# with a duplicate edge appended or not.
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
    _write(targets, 0, 1, 1, 1, ring)
    # ring vertex v = 1..2n: previous v - 1, next v + 1, wrapped within its cycle
    _write(targets, ring + 1, 3, 0, 1, ring)
    _write(targets, ring + 2, 3, 2, 1, ring)
    for first in (1, n + 1):
        last = first + n - 1
        targets[ring + 3 * first - 2] = last
        targets[ring + 3 * last - 1] = first
    # 0, then ring, ring + 3, ..., 4 * ring: the hub's row, then 3 slots a vertex
    offsets = array(TYPECODE, [0]) * (ring + 2)
    _write(offsets, 1, 1, ring, 3, ring + 1)
    return Graph._from_csr(offsets, targets)


def hanoi(n: int) -> Graph:
    """State graph of the n-disc, 3-peg puzzle.

    Vertices are the ``3**n`` disc placements; two states are adjacent iff
    one legal move transforms one into the other. The result has
    ``3 * (3**n - 1) // 2`` edges, exactly three degree-2 vertices (the
    all-on-one-peg states), and degree 3 everywhere else.

    Written by the digit rule (Hinz et al., 2013). With the smallest disc
    on peg ``a``, slots 0 and 1 of a row move it to the lower, then the
    higher, of the other two pegs; slot 2 moves the first disc that is not
    on peg ``a`` to the third peg. The three corners, every disc on one
    peg, have no slot 2, so ``offsets[v]`` is ``3v`` less the number of
    corners below ``v``.
    """
    _require_int(n)
    if n < 1:
        raise ValueError(f"hanoi requires n >= 1, got {n}")
    if n > HANOI_MAX_N:
        raise ValueError(f"hanoi size cap is n <= {HANOI_MAX_N}, got {n}")
    size = 3**n
    offsets = array(TYPECODE, [0]) * (size + 1)
    # the vertices with 0, 1, 2 and 3 corners below them
    for below, (lo, hi) in enumerate(pairwise((0, 1, (size + 1) // 2, size, size + 1))):
        _write(offsets, lo, 1, 3 * lo - below, 3, hi - lo)
    targets = array(TYPECODE, [0]) * (3 * size - 3)
    for lo, hi, below, slot, shift in _hanoi_moves(n):
        _write(targets, 3 * lo - below + slot, 3, lo + shift, 1, hi - lo)
    return Graph._from_csr(offsets, targets)


def _hanoi_moves(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """The moves of ``hanoi(n)`` as runs ``(lo, hi, below, slot, shift)``:
    every vertex ``v`` in ``range(lo, hi)`` has ``below`` corners below it,
    and slot ``slot`` of its row is ``v + shift``.

    Disc ``i``, counting from 0 for the smallest, has place value
    ``3**(n - 1 - i)`` in an id, so moving it from peg ``c`` to peg ``t``
    adds ``(t - c) * 3**(n - 1 - i)``. The ids with the smallest disc on
    peg ``a`` hold corner ``a``, every disc on peg ``a``: the ids up to it
    have ``a`` corners below them and the ids past it ``a + 1``.
    """
    third = 3 ** (n - 1)
    for a in (0, 1, 2):
        others = [p for p in (0, 1, 2) if p != a]
        past = a * (3 * third - 1) // 2 + 1
        for slot, b in enumerate(others):
            yield a * third, past, a, slot, (b - a) * third
            yield past, (a + 1) * third, a + 1, slot, (b - a) * third
        for i in range(1, n):
            weight = 3 ** (n - 1 - i)
            # discs 0..i-1 on peg a, disc i on peg c, moved to peg 3 - a - c;
            # the run lies past corner a iff c > a
            prefix = a * (3**i - 1) // 2 * 3 * weight
            for c in others:
                lo = prefix + c * weight
                yield lo, lo + weight, a + (c > a), 2, (3 - a - 2 * c) * weight


# Items of a column written by one big-int add at most, so that a block
# stays small beside the columns it writes.
_BLOCK = 1 << 14
# every lane 1: its lanes are alike, so its low lanes are its first ones in
# either byte order
_ONES = int.from_bytes(array(TYPECODE, [1]) * _BLOCK, sys.byteorder)


def _ramp() -> bytes:
    # the items 0, 1, ..., _BLOCK - 1 in the array's byte order: 256 from a
    # range, then by doubling, the items so far plus their number in every
    # lane being the next as many, which is cheaper than a range of them all
    raw = array(TYPECODE, range(256)).tobytes()
    while len(raw) < _BLOCK * _LANE:
        lanes = int.from_bytes(raw, sys.byteorder) + len(raw) // _LANE * (_ONES & (1 << 8 * len(raw)) - 1)
        raw += lanes.to_bytes(len(raw), sys.byteorder)
    return raw


_RAMP = _ramp()


def _write(column: array, pos: int, stride: int, first: int, step: int, count: int) -> None:
    """Set ``column[pos + i * stride] = first + i * step`` for every ``i < count``.

    The run is written a block of at most ``_BLOCK`` items at a time, with
    big-int lane arithmetic on the items read as one integer in the array's
    byte order: the first block is the ramp ``0, 1, 2, ...`` times ``step``
    plus ``first`` in every lane, and each further block the one before plus
    its span in every lane. A run of fewer items takes the first bytes of
    ``_RAMP``, which are its first lanes in either byte order; a mask of the
    low bits would take its last lanes on a big-endian host. ``first`` and
    ``step`` must be non-negative and every lane of every block, past
    ``count`` included, below ``2**31``, so that no lane carries into the
    next.
    """
    order = sys.byteorder
    size = min(count, _BLOCK) * _LANE
    ones = _ONES & (1 << 8 * size) - 1
    value = first * ones + step * int.from_bytes(_RAMP[:size], order)
    span = size // _LANE * step * ones
    for done in range(0, count, _BLOCK):
        block = array(TYPECODE, value.to_bytes(size, order)[: (count - done) * _LANE])
        start = pos + done * stride
        column[start : start + len(block) * stride : stride] = block
        value += span


def __getattr__(name: str):
    # The edge-list reader and writer live in `edgelist`, which is loaded on
    # first use; callers that look them up in this module still find them.
    if name in ("from_edge_list", "to_edge_list"):
        from . import edgelist

        return getattr(edgelist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
