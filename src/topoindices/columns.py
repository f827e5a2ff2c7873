"""Columns of a small int per vertex, held a block of vertices at a time.

:meth:`Graph.edge_classes <topoindices.graph.Graph.edge_classes>` keeps two
such columns, one at a time: the mask of P, the vertices whose neighbor
sums it pulls from their rows, and then the label ids. Nearly every block
of either holds one value throughout: in ``hanoi(n)`` only the three
corners and their six neighbors carry a label other than the common one,
and in the double wheel only the hub.

A block column is a list of one block per ``BLOCK`` vertices, the last one
padded to ``BLOCK`` items. A block that holds one value throughout may be
that value's shared, read-only ``bytes`` block, :data:`ZEROS` or
:data:`ONES`, so that such a column of V vertices is a list of V / 256
references and not a byte per vertex. Any other block is copied on its
first partial write, by :func:`write`: to a ``bytearray``, or to a
``list`` once an id passes 255. The shared blocks are never written.

Flat columns, the CSR arrays and ``range`` of the vertex ids, are read
through :func:`pieces`, a block at a time, so that a long run of them is
never copied whole.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, repeat, starmap
from operator import getitem, ne

# Columns are scanned, and sliced, this many items at a time.
BLOCK = 1 << 8

# The shared blocks of 0 and of 1.
ZEROS = bytes(BLOCK)
ONES = b"\x01" * BLOCK

# Runs of vertex ids or of target slots, each ``[start, end)``, in order.
Runs = list[tuple[int, int]]


def zeros(length: int) -> list:
    """A block column of ``length`` zeros, every block :data:`ZEROS`."""
    return [ZEROS] * -(-length // BLOCK)


def runs_off(values: Iterable[int], common: int, base: int) -> Runs:
    """The maximal ``[start, end)`` runs of the items of ``values`` other
    than ``common``, shifted by ``base``."""
    flags = bytes(map(common.__ne__, values))
    runs = []
    end = 0
    while (start := flags.find(1, end)) >= 0:
        end = flags.find(0, start)
        if end < 0:
            end = len(flags)
        runs.append((base + start, base + end))
    return runs


def split(runs: Runs) -> Iterator[tuple[int, int]]:
    """``runs`` cut into ``[start, end)`` pieces of at most ``BLOCK`` items."""
    for start, end in runs:
        for i in range(start, end, BLOCK):
            yield i, min(i + BLOCK, end)


def pieces(column: Sequence[int], runs: Runs) -> Iterator[int]:
    """The items of the flat ``column`` in ``runs``, in order, copied a
    block at a time."""
    return chain.from_iterable(map(column.__getitem__, starmap(slice, split(runs))))


def write(blocks: list, start: int, values: Sequence[int]) -> Sequence[int]:
    """Write ``values`` from ``start`` on, inside one block of the block
    column ``blocks``, and return the items they replace. A shared block is
    copied first, to a ``bytearray``, or to a ``list`` if a value passes
    255; so is a ``bytearray`` block that such a value is written to."""
    b, i = divmod(start, BLOCK)
    block = blocks[b]
    kind = list if max(values) > 255 else bytearray
    if type(block) not in (kind, list):
        block = blocks[b] = kind(block)
    old = block[i : i + len(values)]
    block[i : i + len(values)] = values
    return old


def set_ones(blocks: list, vertices: Iterable[int]) -> None:
    """Set the items of the block column ``blocks`` at ``vertices`` to 1.
    A shared block is copied to a ``bytearray`` only where it holds another
    value."""
    for v in vertices:
        b, i = divmod(v, BLOCK)
        block = blocks[b]
        if block[i] != 1:
            if type(block) is bytes:
                block = blocks[b] = bytearray(block)
            block[i] = 1


def fill(blocks: list, start: int, end: int, shared: bytes) -> None:
    """Set ``[start, end)`` of the block column ``blocks`` to the value of
    its shared block ``shared``: every whole block to ``shared`` itself, a
    part of one at either end by :func:`write`. The whole blocks are set
    one at a time, for a slice assignment first copies what it assigns to
    a list as long as the slice."""
    first, last = -(-start // BLOCK), end // BLOCK
    for b in range(first, last):
        blocks[b] = shared
    mid = min(end, first * BLOCK)
    for i, j in (start, mid), (max(mid, last * BLOCK), end):
        if i < j:
            write(blocks, i, shared[: j - i])


def differing(blocks: list, common: int, length: int) -> Runs:
    """Runs of the positions below ``length`` where the block column
    ``blocks`` holds anything but ``common``, cut at block edges.

    A block equal to ``common``'s uniform block costs one C-level
    comparison, through ``operator.ne``, which a ``list`` block and a
    ``bytes`` one answer without a ``NotImplemented`` in a boolean context.
    Only the other blocks are compared item by item.
    """
    uniform = bytes((common,)) * BLOCK if common < 256 else [common] * BLOCK
    runs = []
    for start in compress(range(0, length, BLOCK), map(ne, blocks, repeat(uniform))):
        runs += runs_off(blocks[start // BLOCK][: length - start], common, start)
    return runs


def lookup(blocks: list, column: Sequence[int], runs: Runs) -> Iterator[int]:
    """The items of the block column ``blocks`` at the ids that the flat
    ``column`` holds in ``runs``, each found by C-level calls alone: its
    block, ``id // BLOCK``, and its place there, ``id % BLOCK``."""
    at = map(blocks.__getitem__, map(BLOCK.__rfloordiv__, pieces(column, runs)))
    return map(getitem, at, map(BLOCK.__rmod__, pieces(column, runs)))
