"""The block column of the classifier against a flat list of the same values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoindices.columns import (
    BLOCK,
    ONES,
    ZEROS,
    differing,
    fill,
    lookup,
    pieces,
    set_ones,
    write,
    zeros,
)

LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def expanded(runs):
    return [v for start, end in runs for v in range(start, end)]


def sorted_runs(draw, length):
    """Disjoint, ordered ``[start, end)`` runs inside ``[0, length)``, some empty."""
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=6)))
    return list(zip(cuts[::2], cuts[1::2]))


def assert_column(blocks, flat):
    """``blocks`` holds ``flat``, and no block can change another."""
    length = len(flat)
    assert len(blocks) == -(-length // BLOCK)
    assert ZEROS == bytes(BLOCK) and ONES == b"\x01" * BLOCK
    for block in blocks:
        assert len(block) == BLOCK
        if type(block) is bytes:
            assert block is ZEROS or block is ONES
        else:
            assert type(block) in (bytearray, list)
    # every writable block is held once, so that writing it changes no
    # other position
    writable = [id(block) for block in blocks if type(block) is not bytes]
    assert len(writable) == len(set(writable))
    assert list(lookup(blocks, range(length), [(0, length)])) == flat
    for common in {0, 1, *flat}:
        runs = differing(blocks, common, length)
        assert expanded(runs) == [v for v, value in enumerate(flat) if value != common]
        # each run is non-empty and inside one block
        assert all(start < end and start // BLOCK == (end - 1) // BLOCK for start, end in runs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_column_matches_a_flat_list(data):
    length = data.draw(st.sampled_from(LENGTHS))
    blocks = zeros(length)
    flat = [0] * length
    assert_column(blocks, flat)
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["fill", "set_ones", "write", "widen"]))
        if length == 0:
            break
        if op == "fill":
            start = data.draw(st.integers(0, length - 1))
            end = data.draw(st.integers(start + 1, length))
            value = data.draw(st.sampled_from([0, 1]))
            fill(blocks, start, end, (ZEROS, ONES)[value])
            flat[start:end] = [value] * (end - start)
        elif op == "set_ones":
            vertices = data.draw(st.lists(st.integers(0, length - 1), max_size=20))
            set_ones(blocks, iter(vertices))
            for v in vertices:
                flat[v] = 1
        else:
            # a write inside one block, as P's label blocks are written, of
            # ids that fit a byte, or that may not, which widens the block
            start = data.draw(st.integers(0, length - 1))
            room = min(BLOCK - start % BLOCK, length - start)
            size = data.draw(st.integers(1, room))
            ids = st.integers(0, 600 if op == "widen" else 255)
            values = data.draw(st.lists(ids, min_size=size, max_size=size))
            replaced = write(blocks, start, values)
            assert list(replaced) == flat[start : start + size]
            flat[start : start + size] = values
            if max(values) > 255:
                assert type(blocks[start // BLOCK]) is list
        assert_column(blocks, flat)
        column = data.draw(st.lists(st.integers(0, length - 1), max_size=3 * BLOCK))
        runs = sorted_runs(data.draw, len(column))
        assert list(pieces(column, runs)) == [column[i] for i in expanded(runs)]
        assert list(lookup(blocks, column, runs)) == [flat[column[i]] for i in expanded(runs)]


# ranges from the first item or the second, to the end or inside the first
# block, and across the first block edge, at every length they fit
FILLS = [
    (length, start, min(end, length))
    for length in LENGTHS[1:]
    for start, end in [(0, length), (1, length), (0, BLOCK - 1), (BLOCK - 1, BLOCK + 1)]
    if start < min(end, length)
]


@pytest.mark.parametrize("length, start, end", FILLS)
def test_fill_shares_every_whole_block(length, start, end):
    # a fill sets each block it covers whole to the shared block itself,
    # and copies only the blocks it covers in part
    blocks = zeros(length)
    fill(blocks, start, end, ONES)
    for b, block in enumerate(blocks):
        lo, hi = b * BLOCK, b * BLOCK + BLOCK
        if start <= lo and hi <= end:
            assert block is ONES
        elif end <= lo or hi <= start:
            assert block is ZEROS
        else:
            assert type(block) is bytearray
    assert list(lookup(blocks, range(length), [(0, length)])) == [
        int(start <= v < end) for v in range(length)
    ]


def test_set_ones_copies_no_block_that_holds_a_one_already():
    blocks = zeros(3 * BLOCK)
    fill(blocks, 0, BLOCK, ONES)
    set_ones(blocks, iter([0, BLOCK - 1, 2 * BLOCK + 3]))
    assert blocks[0] is ONES and blocks[1] is ZEROS
    assert type(blocks[2]) is bytearray and blocks[2][3] == 1
