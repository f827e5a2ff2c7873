import hashlib
import io
import os
import random
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from itertools import chain, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    neighbors,
    reference_double_wheel,
    reference_from_edge_list,
    reference_hanoi,
    sha256,
    shuffled_edge_list,
)
from topoindices import (
    DW_MAX_N,
    HANOI_MAX_N,
    Graph,
    double_wheel,
    edgelist,
    from_edge_list,
    hanoi,
    to_edge_list,
)
from topoindices.cli import main
from topoindices.closed_forms import FAMILIES
from topoindices.edgelist import (
    _READ_CHUNK,
    _WRITE_BATCH,
    _edge_list_pieces,
    _first_fault,
    _read_lines,
)
from topoindices import generators
from topoindices.generators import _BLOCK, _write
from topoindices.graph import TYPECODE, _csr


def column_digest(column: array) -> str:
    """sha256 of a CSR column's items as 8-byte ints, whatever its item width."""
    return hashlib.sha256(array("q", column).tobytes()).hexdigest()


class TestDoubleWheel:
    def test_dw3(self):
        g = double_wheel(3)
        assert g.vertex_count == 7
        assert g.edge_count() == 12
        assert g.degree(0) == 6

    def test_dw4_degree_multiset(self):
        g = double_wheel(4)
        assert g.vertex_count == 9
        assert g.edge_count() == 16
        degrees = Counter(g.degree(v) for v in range(9))
        assert degrees == {8: 1, 3: 8}

    @pytest.mark.parametrize("n", [3, 5, 17, 100, 200])
    def test_degree_sequence(self, n):
        g = double_wheel(n)
        assert g.vertex_count == 2 * n + 1
        assert g.edge_count() == 4 * n
        degrees = Counter(g.degree(v) for v in range(g.vertex_count))
        assert degrees == {2 * n: 1, 3: 2 * n}

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_connected_and_valid(self, n):
        assert double_wheel(n).validate() is None

    @pytest.mark.parametrize("n", [2, 1, 0, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            double_wheel(n)

    @pytest.mark.parametrize("n", [3.5, 4.0, True, "5", None])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            double_wheel(n)

    @pytest.mark.parametrize("n", [*range(3, 61), 1000])
    def test_matches_edge_list_reference(self, n):
        assert double_wheel(n) == reference_double_wheel(n)

    def test_rejects_n_above_cap_before_allocating(self):
        assert FAMILIES["dw"].max_n == DW_MAX_N
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^double_wheel size cap is n <= {DW_MAX_N}, got"):
                double_wheel(DW_MAX_N + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_row_order_pinned(self):
        # the CSR columns of double_wheel(1000) item for item, rows in builder order
        g = double_wheel(1000)
        assert column_digest(g._offsets) == (
            "d0dcb9e208dde5bb2fb63863b45da188b9471824f3de7692ac7fe1b585038f0f"
        )
        assert column_digest(g._targets) == (
            "8aa93644066f419a9a74d9d95af7934b45951a65cc121725604ad54aebf12372"
        )

    def test_cap_scale_row_order_pinned(self):
        # double_wheel(100_000), two rings of 16384-item blocks and a ragged last one
        g = double_wheel(100_000)
        assert column_digest(g._offsets) == (
            "99a196f26661a31c3a0c2d0fdb46b654825ba3bb607b818b69bae51a5d82e93d"
        )
        assert column_digest(g._targets) == (
            "595bafe009c799555599aa827cde722b57ff5fc7f5ca7fb195cbb6f8ce1e5c0c"
        )

    def test_ring_structure(self):
        # hub 0, rings 1..n and n+1..2n, consecutive around each cycle
        g = double_wheel(4)
        assert neighbors(g, 1) == frozenset({0, 2, 4})
        assert neighbors(g, 5) == frozenset({0, 6, 8})


class TestHanoi:
    def test_one_disc_is_a_triangle(self):
        g = hanoi(1)
        assert g.vertex_count == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cardinalities(self, n):
        g = hanoi(n)
        assert g.vertex_count == 3**n
        assert g.edge_count() == 3 * (3**n - 1) // 2

    def test_h3_spot_counts(self):
        g = hanoi(3)
        assert g.vertex_count == 27
        assert g.edge_count() == 39

    def test_h4_spot_counts(self):
        g = hanoi(4)
        assert g.vertex_count == 81
        assert g.edge_count() == 120

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_move_rule_reference(self, n):
        assert hanoi(n) == reference_hanoi(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_offsets_match_move_rule_reference(self, n):
        # written directly, as 3v less the number of corners below v
        assert hanoi(n)._offsets == reference_hanoi(n)._offsets

    @pytest.mark.parametrize("n", range(1, HANOI_MAX_N + 1))
    def test_offsets_as_one_progression_per_run(self, n):
        # written a block at a time from one ramp, byte for
        # byte the step-3 range of each run of vertices between two corners
        size = 3**n
        corners = (0, (size - 1) // 2, size - 1)
        expected = array(TYPECODE, [0]) * (size + 1)
        for below, (first, last) in enumerate(pairwise((*corners, size)), start=1):
            expected[first + 1 : last + 1] = array(
                TYPECODE, range(3 * (first + 1) - below, 3 * (last + 1) - below, 3)
            )
        assert hanoi(n)._offsets.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_follow_the_digit_rule(self, n):
        # per vertex, from its base-3 digits (disc i's peg is digit i, the
        # smallest disc first): the smallest disc to the lower, then the
        # higher, other peg; then the first disc off its peg to the third
        # peg, which a corner, every disc on one peg, does not have
        g = hanoi(n)
        for v in range(3**n):
            pegs = [v // 3 ** (n - 1 - i) % 3 for i in range(n)]
            a = pegs[0]
            row = [v + (b - a) * 3 ** (n - 1) for b in (0, 1, 2) if b != a]
            off = [i for i in range(1, n) if pegs[i] != a]
            if off:
                i = off[0]
                row.append(v + (3 - a - 2 * pegs[i]) * 3 ** (n - 1 - i))
            assert g._targets[g._offsets[v] : g._offsets[v + 1]].tolist() == row

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exactly_three_degree_two_vertices(self, n):
        g = hanoi(n)
        corners = [v for v in range(g.vertex_count) if g.degree(v) == 2]
        # the all-on-one-peg states under the base-3 numbering
        assert corners == [0, (3**n - 1) // 2, 3**n - 1]
        assert all(g.degree(v) == 3 for v in range(g.vertex_count) if v not in corners)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_corner_neighbors_are_adjacent(self, n):
        g = hanoi(n)
        for v in range(g.vertex_count):
            if g.degree(v) == 2:
                a, b = sorted(neighbors(g, v))
                assert b in neighbors(g, a)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_connected_and_valid(self, n):
        assert hanoi(n).validate() is None

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            hanoi(0)
        with pytest.raises(ValueError):
            hanoi(14)

    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", None])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            hanoi(n)


class TestHanoiLanes:
    """Each run is written a block of ``_BLOCK`` items at a time."""

    def test_ragged_multi_block_levels_match_reference(self):
        for n in (10, 11):
            run = 3 ** (n - 1)
            # a run of the smallest disc spans more than one block, the last
            # one ragged, and the middle one holds the middle corner
            assert run > _BLOCK
            assert run % _BLOCK != 0
            assert run <= (3**n - 1) // 2 < 2 * run
            assert hanoi(n) == reference_hanoi(n)

    def test_lanes_have_headroom_at_the_caps(self):
        # every id and offset of hanoi(HANOI_MAX_N) is below 3**(HANOI_MAX_N + 1),
        # and of double_wheel(DW_MAX_N) at most 8 * DW_MAX_N; below the sign
        # bit, no lane of `_write` or `_degree_blocks` carries
        # into or borrows from the next, nor does a writer block's lane past
        # the end of its run, at most 3 * _BLOCK above the run's last item
        limit = 2 ** (8 * array(TYPECODE).itemsize - 1)
        assert 3 ** (HANOI_MAX_N + 1) < limit
        assert 8 * DW_MAX_N + 1 < limit
        assert max(3 ** (HANOI_MAX_N + 1), 8 * DW_MAX_N + 1) + 3 * _BLOCK < limit

    def test_row_order_pinned(self):
        # the CSR columns of hanoi(11) item for item, rows in builder order
        g = hanoi(11)
        assert column_digest(g._offsets) == (
            "7a54c07b8e30c13ac7aee0a817865b35d6e58c4e79857d048ff5b248b5c7419d"
        )
        assert column_digest(g._targets) == (
            "279e1a566c16d6561644e64d835752b74fc12d7ebb5ae910914d4fefb8bde3b4"
        )

    @pytest.mark.parametrize(
        "n, offsets, targets",
        [
            (
                12,
                "36c572567766dd00d1891c3ec5dea95bd0a54d3c0e79ce766e1a48cf36a1d1c0",
                "e3daa0e81d254535edb6a10e2f58773f68c02bcf7f50c99dc1113b559446c9ee",
            ),
            (
                13,
                "75884a46435bcbdf0a8da295f2cea4acf243900dd3a492410f49e4cd6ef2e698",
                "03ee684b03a1e75cfbe203b2f5bc02cf682276b1381ea5983fd646ded2a2fca3",
            ),
        ],
    )
    def test_cap_row_order_pinned(self, n, offsets, targets):
        # the CSR columns of the two largest builds item for item
        g = hanoi(n)
        assert column_digest(g._offsets) == offsets
        assert column_digest(g._targets) == targets


class TestProgression:
    """Generator columns written a block at a time from one ramp, not item by item."""

    @pytest.mark.parametrize(
        "count",
        [0, 1, 5, 255, 256, 257, 1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3**9, 40_000, 3**13],
    )
    @pytest.mark.parametrize("start, step", [(0, 1), (2, 1), (7, 3)])
    def test_equals_the_range(self, start, step, count):
        # every stride-th item from a non-zero position; the items around
        # and between them keep their values
        pos = 5
        for stride in (1, 3):
            column = array(TYPECODE, [-1]) * (pos + count * stride + 4)
            expected = array(TYPECODE, column)
            expected[pos : pos + count * stride : stride] = array(
                TYPECODE, range(start, start + count * step, step)
            )
            _write(column, pos, stride, start, step, count)
            assert column == expected

    @pytest.mark.parametrize("count", [1, 5, 257, _BLOCK - 1, _BLOCK + 1])
    def test_either_byte_order(self, monkeypatch, count):
        # a host of the other byte order, whose items are these byte-swapped:
        # a run shorter than a block starts at its first lane, not its last
        other = "big" if sys.byteorder == "little" else "little"
        ramp = array(TYPECODE, generators._RAMP)
        ramp.byteswap()
        monkeypatch.setattr(sys, "byteorder", other)
        monkeypatch.setattr(generators, "_RAMP", ramp.tobytes())
        column = array(TYPECODE, [0]) * (3 * count + 2)
        _write(column, 1, 3, 7, 3, count)
        monkeypatch.undo()
        column.byteswap()
        expected = array(TYPECODE, [0]) * len(column)
        expected[1 : 1 + 3 * count : 3] = array(TYPECODE, range(7, 7 + 3 * count, 3))
        assert column == expected


def retained_and_peak_bytes(build, arg):
    """A built result, the bytes it keeps, and the peak allocated building it."""
    tracemalloc.start()
    try:
        g = build(arg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, retained, peak


class TestMemoryLayout:
    """Flat CSR arrays: a few 4-byte slots per vertex, not a set per vertex
    (a tuple of frozensets kept about 320 B per vertex of hanoi(10))."""

    @pytest.fixture(scope="class")
    def hanoi10(self):
        return retained_and_peak_bytes(hanoi, 10)

    def test_retained_bytes_per_vertex(self, hanoi10):
        # measured 16.0, 20.1 and 20.0 with 4-byte items, twice that with
        # 8-byte ones
        built = [
            hanoi10,
            retained_and_peak_bytes(double_wheel, 20000),
            retained_and_peak_bytes(from_edge_list, to_edge_list(double_wheel(20000))),
        ]
        for g, retained, _ in built:
            assert retained / g.vertex_count <= 24

    def test_hanoi_build_peak(self, hanoi10):
        _, _, peak = hanoi10
        assert peak < 8_000_000

    def test_double_wheel_build_peak(self):
        # 2.26x while the hub row was prepended by concatenating two arrays
        _, retained, peak = retained_and_peak_bytes(double_wheel, 100_000)
        assert peak <= 1.25 * retained

    def test_edge_classes_peak(self):
        # 1,975,128 B while lists of degrees, sums, codes and ids were held
        # at once; 82,859 B, run alone, while a byte per vertex was held for
        # the ids, and 29,014 B with the ids in blocks, most of them shared.
        # Run alone, the peak holds some 4 KB of abc caches that the first
        # Counter.update of a process fills
        g = hanoi(10)
        assert g._classes is None
        _, _, peak = retained_and_peak_bytes(Graph.edge_classes, g)
        assert peak <= 0.75 * g.vertex_count

    @pytest.mark.parametrize(
        "build, n, bound", [(hanoi, 10, 45_000), (double_wheel, 100_000, 30_000)]
    )
    def test_edge_classes_peak_by_exception(self, build, n, bound):
        # 1,005,505 and 3,250,584 B when every slot was counted, with the
        # degrees and the ids the only vertex-length lists. Walking only
        # T's rows kept to that; a set or dict of T (every vertex of the
        # double wheel) would not. A byte per vertex for the ids peaked at
        # 82,859 and 211,223 B run alone; blocks of ids, most of them
        # shared, at 29,014 and 19,575 B
        g = build(n)
        _, _, peak = retained_and_peak_bytes(Graph.edge_classes, g)
        assert peak <= bound

    def test_edge_classes_peak_with_an_inner_hub(self):
        # dw(100000) with its ids relabelled: the hub's row spans every id
        # but its own, and is read as one interval, as the plain hub's row
        # is: 1,510,083 B against 1,411,729. It peaked at 2,623,096 B while
        # the ring's sums were pulled from their rows through a list of the
        # degrees. The hub swapped to ids 1, n, 2n - 1 and 2n too: the peak
        # rose with the hub's id, to 2,047,479 B at the last two, while the
        # degree column was widened from a copy of its narrow blocks
        n = 100_000
        perm = list(range(2 * n + 1))
        random.Random(5).shuffle(perm)
        plain = double_wheel(n)
        assert 0 < perm[0] < 2 * n
        plain_peak = retained_and_peak_bytes(Graph.edge_classes, plain)[2]

        def swapped(hub):
            ids = list(range(2 * n + 1))
            ids[0], ids[hub] = hub, 0
            return ids

        for ids in chain([perm], map(swapped, (1, n, 2 * n - 1, 2 * n))):
            relabelled = Graph(2 * n + 1, [(ids[u], ids[v]) for u, v in plain.edges()])
            peak = retained_and_peak_bytes(Graph.edge_classes, relabelled)[2]
            assert peak <= 1.1 * plain_peak, ids[0]

    def test_csr_peak(self):
        # 1,120,448 B at shuffled dw(20000): the list of each row's filled
        # slots, all cached small ints, the offsets and the targets. The
        # degree list is freed once the offsets are summed from it, before
        # the targets are allocated, so it is no part of the peak. A cursor
        # list of each row's next offset, an int per vertex, peaked at
        # 2,431,560 B
        text = shuffled_edge_list(to_edge_list(double_wheel(20000)), seed=7)
        ends = array("I", map(int, text.split()))
        _, _, peak = retained_and_peak_bytes(lambda ends: _csr(40001, ends), ends)
        assert peak <= 1.02 * 1_120_448

    @pytest.mark.parametrize("build, n", [(hanoi, 12), (double_wheel, 20000), (double_wheel, 100_000)])
    def test_hanoi_build_and_classes_keep_near_the_graph(self, build, n):
        # hanoi(12) kept 17,006,336 B with 8-byte items. Its build peaked at
        # 1.25x that while the old level, a degree array and the offsets
        # accumulated from it were held next to the targets, and edge_classes
        # at 1.52x while it held lists of degrees and ids. With 4-byte items
        # it keeps 8,503,276 B; the build peaks at 1.008x. edge_classes held
        # 2.03 B per vertex above the graph while it kept a degree column
        # next to the ids, and 7.2 B at dw(20000), whose hub widened that
        # column to 4 B per vertex; 1.03, 1.17 and 1.03 at dw(100000) while
        # the P mask and the ids were a byte per vertex each; and 0.069,
        # 0.26 and 0.076 with both in blocks, most of them shared, a list
        # of one reference per 256 vertices. A small graph is classified
        # first: the first Counter.update of an iterable in a process fills
        # the caches of abc's isinstance check, some 4 KB, once, whatever
        # the graph
        bound = {12: 0.1, 20000: 0.4, 100_000: 0.12}[n]
        build(3).edge_classes()
        tracemalloc.start()
        try:
            g = build(n)
            retained, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            g.edge_classes()
            _, classes_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if build is hanoi:
            # the double wheel's build is held by test_double_wheel_build_peak
            assert build_peak <= 1.1 * retained
        assert classes_peak - retained <= bound * g.vertex_count


class TestEdgeListMemory:
    """Neither direction of the edge-list path holds a Python object per
    vertex or per edge: parsing dw(5000) peaked at 5.8 MB and writing
    dw(20000) at 14.1 MB when they held per-vertex sets and whole-graph
    lists of pairs and lines."""

    def test_parse_peak(self):
        # 2,180,156 B while the parser held an array per vertex and then
        # flattened them; 1,317,558 B with one flat column of endpoint ids,
        # 807,208 B while the CSR fill and the walk held an int per vertex,
        # and 447,992 B without
        _, _, peak = retained_and_peak_bytes(from_edge_list, to_edge_list(double_wheel(5000)))
        assert peak <= 1.1 * 447_992

    def test_fault_reread_peak(self):
        # a fault on the last line: 15,809,876 B while the built graph was
        # held during the re-read and its edge set held a (lo, hi) tuple per
        # edge, 9,163,316 B with neither
        text = to_edge_list(double_wheel(20000)) + "1 0\n"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^line 80001: duplicate edge \\(0, 1\\)$"):
                from_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 9_163_316

    def test_walk_fault_reread_tracks_flagged_rows(self, monkeypatch):
        # the walk flags rows 0 and 1 alone, so the re-read holds no edge
        # but (0, 1): the peak is the first read's, 1,797,433 B (3,140,945 B
        # while the CSR fill and the walk held an int per vertex), where a
        # re-read holding every edge peaked at 9,163,316 B. The first read's
        # line count comes with them, so the text is not split to count it
        text = to_edge_list(double_wheel(20000)) + "1 0\n"
        flagged = []

        def first_fault(chunks, *args):
            flagged.append(args)
            return _first_fault(chunks, *args)

        monkeypatch.setattr(edgelist, "_first_fault", first_fault)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^line 80001: duplicate edge \\(0, 1\\)$"):
                from_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert flagged == [(80001, {0, 1})]
        assert peak <= 1.1 * 1_797_433

    @pytest.mark.parametrize("fault", ["1 0\n", "1 x\n", "0 99999\n"])
    def test_fault_reread_holds_no_column(self, monkeypatch, fault):
        # each fault path of the first read, the walk, a faulty line and
        # the largest id, frees its columns before the text is read again,
        # and reads no text of a file before then
        text = to_edge_list(double_wheel(5000)) + fault
        file = io.StringIO(text)
        held = []

        def first_fault(chunks, *flagged):
            held.append(tracemalloc.get_traced_memory()[0])
            return _first_fault(chunks, *flagged)

        monkeypatch.setattr(edgelist, "_first_fault", first_fault)
        tracemalloc.start()
        try:
            for source in (text, file):
                with pytest.raises(ValueError, match="^line 20001: "):
                    from_edge_list(source)
        finally:
            tracemalloc.stop()
        # the graph's columns alone take 200 kB
        assert len(held) == 2
        assert max(held) < 20_000

    def test_file_parse_holds_no_text(self, tmp_path):
        # shuffled dw(20000), 766,682 characters: read whole and then
        # parsed, as `--edges` did, it peaked at 3,914,748 B; a file read a
        # block at a time peaked at 3,146,444 B while the CSR fill and the
        # walk held an int per vertex, and peaks at 1,802,519 B
        text = shuffled_edge_list(to_edge_list(double_wheel(20000)), seed=7)
        path = tmp_path / "dw.txt"
        path.write_text(text, encoding="utf-8")

        def parse(read_whole):
            with open(path, encoding="utf-8") as file:
                return from_edge_list(file.read() if read_whole else file)

        _, _, text_peak = retained_and_peak_bytes(parse, True)
        g, _, file_peak = retained_and_peak_bytes(parse, False)
        assert g == double_wheel(20000)
        assert file_peak <= text_peak - 0.8 * len(text)
        assert file_peak <= 1.1 * 1_802_519

    def test_write_peak(self):
        _, _, peak = retained_and_peak_bytes(to_edge_list, double_wheel(20000))
        assert peak <= 6_000_000

    @pytest.mark.parametrize("newline", ["\r", "\u2028"])
    def test_parse_peak_for_other_line_breaks(self, newline):
        # chunks cut only after "\n" held every line of such a file at once
        text = to_edge_list(double_wheel(5000))
        _, _, peak_n = retained_and_peak_bytes(from_edge_list, text)
        _, _, peak = retained_and_peak_bytes(from_edge_list, text.replace("\n", newline))
        assert peak <= 1.05 * peak_n


class TestIdentityIgnoresConstructionPath:
    """Equal edges make equal graphs with equal hashes, however each graph's
    rows were ordered by the path that built it."""

    @pytest.mark.parametrize(
        "build, reference, n",
        [(hanoi, reference_hanoi, n) for n in (1, 2, 3, 5)]
        + [(double_wheel, reference_double_wheel, n) for n in (3, 4, 9)],
    )
    def test_paths_agree(self, build, reference, n):
        g = build(n)
        reversed_rows = Graph._from_csr(
            g._offsets, array(TYPECODE, chain.from_iterable(map(reversed, map(sorted, g._rows()))))
        )
        paths = [reference(n), reversed_rows, from_edge_list(to_edge_list(g))]
        # the paths really do order some rows differently
        assert len({g._targets.tobytes(), *(p._targets.tobytes() for p in paths)}) > 1
        for other in paths:
            assert other == g
            assert hash(other) == hash(g)

    def test_different_edges_differ(self):
        # same vertex count and degrees, so only the rows' contents tell them apart
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(0, 2), (1, 3)])
        assert [a.degree(v) for v in range(4)] == [b.degree(v) for v in range(4)]
        assert a != b
        assert hanoi(2) != reference_double_wheel(4)


class TestEdgeListRoundTrip:
    @pytest.mark.parametrize("g", [double_wheel(5), hanoi(3), Graph(2, [(0, 1)])])
    def test_round_trip(self, g):
        assert from_edge_list(to_edge_list(g)) == g

    def test_serialized_form(self):
        assert to_edge_list(Graph(3, [(0, 1), (1, 2), (0, 2)])) == "0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize(
        "hub, row",
        [
            (0, range(1, 5001)),
            (5001, range(5001)),
            (0, [v for v in range(1, 5002) if v != 2500]),
            (2500, [v for v in range(5002) if v != 2500]),
            (2500, [v for v in range(5002) if v not in (100, 2500)]),
        ],
        ids=["run-after-hub", "run-before-hub", "run-but-one-id", "hub-inside-its-span", "hub-inside-a-near-span"],
    )
    def test_long_rows_written_sorted(self, hub, row):
        # a row longer than a write batch, in shuffled order, that lists or
        # does not list every id of its span but its own; no piece holds
        # more than a batch of lines
        row = list(row)
        random.Random(hub).shuffle(row)
        g = Graph._from_csr(*_csr(5002, [end for v in row for end in (hub, v)]))
        assert to_edge_list(g) == "".join(f"{u} {v}\n" for u, v in g.edges())
        assert max(piece.count("\n") for piece in _edge_list_pieces(g)) <= _WRITE_BATCH


class TestEdgeListBytes:
    """The edge-list text and the reports read from it, byte for byte as
    before the edge-list path stopped building per-vertex sets."""

    @pytest.fixture(scope="class")
    def shuffled(self):
        # the hub's row, 40000 ids in shuffled order, is longer than a write batch
        return shuffled_edge_list(to_edge_list(double_wheel(20000)), seed=7)

    @pytest.mark.parametrize(
        "family, n, digest",
        [
            ("dw", 20000, "bbfbafb87a2af10859a1ac74e770c7f5c6c23cadf57ce33ba6518ca1860a685f"),
            ("hanoi", 8, "39282c30ef2060a4f89a21a03c43248d9cfd2195de9faed0213c1c63054be583"),
        ],
    )
    def test_generate_output(self, capsys, family, n, digest):
        assert main(["generate", "--family", family, "--n", str(n)]) == 0
        assert sha256(capsys.readouterr().out) == digest

    def test_shuffled_rows_written_sorted(self, shuffled):
        for g in parse_outcomes(shuffled):
            assert to_edge_list(g) == to_edge_list(double_wheel(20000))

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["compute", "--format", "json"],
                "62952f684ed5ef2af39d779c091cbef2c8dac3412c42f59a5012965a2ac2457a",
            ),
            (
                ["partition", "--mode", "neighbor-sum", "--format", "json"],
                "caf0423a6538432270a2ef107890df29a23f78bc142cd3be83d2fd4389c26b53",
            ),
        ],
    )
    def test_reports_from_shuffled_file(self, tmp_path, capsys, shuffled, argv, digest):
        path = tmp_path / "dw-shuffled.txt"
        path.write_text(shuffled, encoding="utf-8")
        assert main([*argv, "--edges", str(path)]) == 0
        assert sha256(capsys.readouterr().out) == digest

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\u2028"])
    def test_line_breaks_of_splitlines(self, shuffled, newline):
        # the text is split into lines a chunk at a time; a chunk boundary
        # must never change where a line ends or how lines are counted
        text = shuffled.replace("\n", newline)
        assert parse_outcomes(text) == [from_edge_list(shuffled)] * 3
        assert_same_outcome(text + "0 1" + newline + "5 5")

    @pytest.mark.parametrize("last", ["1 0", "9 9", "0 x", "0 90000"])
    def test_late_fault_after_early_duplicate(self, shuffled, last):
        # a duplicate on line 2 outranks a fault many chunks later
        first = shuffled.split("\n", 1)[0]
        u, v = first.split()
        assert_same_outcome(f"{first}\n{v} {u}\n{shuffled}{last}\n")
        assert_same_outcome(f"{shuffled}{last}\n")

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["comment", "blank", "crlf", "fault"])
    def test_line_in_first_middle_or_last_chunk(self, shuffled, where, kind):
        # a chunk that holds such a line is read line by line, the others in
        # one decode each; the outcome is the reference's wherever it falls
        lines = shuffled.splitlines(keepends=True)
        i = round(where * (len(lines) - 1))
        if kind == "crlf":
            lines[i] = lines[i].replace("\n", "\r\n")
        else:
            lines.insert(i, {"comment": "# comment\n", "blank": "\n", "fault": "0 x\n"}[kind])
        text = "".join(lines)
        assert len(text) > 8 * _READ_CHUNK
        assert_same_outcome(text)


# Characters read at a time from an io.StringIO of edge-list text: so few
# that most texts span many blocks, and odd, so that blocks end anywhere in
# a line.
SMALL_READ_CHUNK = 61


def parse_outcomes(text):
    """``from_edge_list`` of ``text`` as a ``str``, as a file of it and as an
    ``io.StringIO`` of it read ``SMALL_READ_CHUNK`` characters at a time: for
    each, the graph, or the message of the ``ValueError`` raised."""

    def outcome(source):
        try:
            return from_edge_list(source)
        except ValueError as error:
            return str(error)

    outcomes = [outcome(text)]
    # newline="" reads the text back with its line breaks untranslated
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as file:
        file.write(text)
        outcomes.append(outcome(file))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edgelist, "_READ_CHUNK", SMALL_READ_CHUNK)
        outcomes.append(outcome(io.StringIO(text, newline="")))
    return outcomes


class TestEdgeListSources:
    """A file and an ``io.StringIO`` read a block at a time give the graph
    or the exact error of the whole text, wherever a block ends."""

    @pytest.fixture(scope="class")
    def body(self):
        return shuffled_edge_list(to_edge_list(double_wheel(300)), seed=3)

    @pytest.mark.parametrize("chunk", [SMALL_READ_CHUNK, _READ_CHUNK])
    @pytest.mark.parametrize("last", ["", "5 5\r\n"])
    def test_crlf_split_across_blocks(self, monkeypatch, body, chunk, last):
        # a comment fills the first block up to the "\r" of its "\r\n"
        text = "#" * (chunk - 1) + "\r\n" + body.replace("\n", "\r\n") + last
        assert text[chunk - 1 : chunk + 1] == "\r\n"
        monkeypatch.setattr(edgelist, "_READ_CHUNK", chunk)
        assert_same_outcome(text)

    @pytest.mark.parametrize("newline", ["\r", "\u2028", "\x85"])
    @pytest.mark.parametrize("last", ["", "0 x"])
    def test_other_line_breaks(self, body, newline, last):
        assert_same_outcome((body + last).replace("\n", newline))

    @pytest.mark.parametrize(
        "line", ["# " + "x" * 3 * SMALL_READ_CHUNK, " " * 3 * SMALL_READ_CHUNK, "0 " + "1" * 200]
    )
    def test_line_longer_than_a_block(self, body, line):
        lines = body.splitlines(keepends=True)
        for i in (0, len(lines) // 2, len(lines)):
            assert_same_outcome("".join([*lines[:i], line + "\n", *lines[i:]]))
        assert_same_outcome(body + line)

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "# only a comment", "0 1", "0 1\n1 2",
            # a last line of digits alone: one id, or two run together
            "7", "0 1\n1 2\n7", "1 2\n2 0\n12",
        ],
    )
    def test_short_texts_without_a_last_line_break(self, text):
        assert_same_outcome(text)

    def test_no_last_line_break(self, body):
        assert_same_outcome(body.rstrip("\n"))

    @pytest.mark.parametrize(
        "last, reads", [("", 1), ("0 x\n", 2), ("1 0\n", 2), ("0 99999\n", 2)]
    )
    def test_file_read_again_only_on_a_fault(self, last, reads):
        # each read starts at the file's start; a fault on a line, at the
        # largest id or in the walk sends it to one more read
        starts = []

        class File(io.StringIO):
            def seek(self, *args):
                starts.append(args)
                return super().seek(*args)

        file = File(to_edge_list(double_wheel(300)) + last)
        if last:
            with pytest.raises(ValueError, match="^line 1201: "):
                from_edge_list(file)
        else:
            assert from_edge_list(file) == double_wheel(300)
        assert starts == [(0,)] * reads

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0 1\n1 2\n", Graph(3, [(0, 1), (1, 2)])),
            ("0 1\n1 2\n1 0\n", "line 3: duplicate edge (0, 1)"),
        ],
        ids=["valid", "duplicate"],
    )
    def test_pipe_is_read_whole(self, text, expected):
        # a pipe cannot seek, so it cannot be read again to name a fault
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        with open(read_end, encoding="utf-8") as file:
            assert not file.seekable()
            try:
                outcome = from_edge_list(file)
            except ValueError as error:
                outcome = str(error)
        assert outcome == expected

    def test_bad_byte_named_by_its_offset_in_the_file(self, tmp_path):
        # the byte lies past the first block, so its offset in its block differs
        data = to_edge_list(double_wheel(3000)).encode() + b"0 \xff\n"
        assert len(data) > _READ_CHUNK
        with pytest.raises(UnicodeDecodeError) as expected:
            data.decode("utf-8")
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as file, pytest.raises(UnicodeDecodeError) as info:
            from_edge_list(file)
        assert str(info.value) == str(expected.value)


def assert_same_outcome(text):
    """``from_edge_list``, of the text and of a file of it, returns the
    set-based reference's graph, or raises its exact error."""
    try:
        expected = reference_from_edge_list(text)
    except ValueError as error:
        expected = str(error)
    assert parse_outcomes(text) == [expected] * 3


# Ids and lines that JSON, int() and str.split() could read apart: a plain
# chunk is decoded as JSON, any other read line by line.
JSON_LOOKALIKE_IDS = [
    "01", "+1", "-0", "1_0", "\u0663", "1e3", "1.0", "[1]", "true", "NaN", "9" * 5000,
]
ODDLY_SPACED_LINES = ["1 2 ", " 1 2", "1  2", "1\t2", "1 \r2"]


@pytest.mark.parametrize(
    "line",
    [f"1 {token}" for token in JSON_LOOKALIKE_IDS]
    + [f"{token} 1" for token in JSON_LOOKALIKE_IDS]
    + ODDLY_SPACED_LINES,
)
def test_json_lookalikes_read_as_int_reads_them(line):
    # each text but for `line` is one plain chunk
    assert_same_outcome(f"0 1\n{line}\n1 2\n")


@st.composite
def edge_list_texts(draw):
    """Edge-list text of a small connected graph, often with faults added."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    lines = [f"{u} {v}" if draw(st.booleans()) else f"{v} {u}" for u, v in edges]
    draw(st.randoms()).shuffle(lines)
    ids = st.integers(0, n - 1).map(str)
    faults = st.one_of(
        st.sampled_from(lines).map(lambda line: " ".join(reversed(line.split()))),
        st.sampled_from(lines),
        ids.map(lambda u: f"{u} {u}"),
        st.tuples(ids, st.integers(-3, -1).map(str)).map(" ".join),
        st.tuples(ids, st.sampled_from(["x", "1.5", "0x1", ""])).map(" ".join),
        st.tuples(ids, ids, ids).map(" ".join),
        st.tuples(ids, st.integers(n, 4 * n).map(str)).map(" ".join),
        st.just("0 9223372036854775808"),
        st.tuples(ids, st.sampled_from(JSON_LOOKALIKE_IDS)).map(" ".join),
        st.sampled_from(ODDLY_SPACED_LINES),
        st.sampled_from(["# comment", "#0 1", "", "   ", "\t"]),
    )
    for fault in draw(st.lists(faults, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_parser_agrees_with_set_based_reference(text):
    assert_same_outcome(text)


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list("0 1\n1 2\n0 2")
        assert g == Graph(3, [(0, 1), (1, 2), (0, 2)])

    def test_comments_and_blanks_ignored(self):
        g = from_edge_list("# a triangle\n\n0 1\n  1 2 \n0 2\n")
        assert g.edge_count() == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list("0 0")

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edge_list("0 1\n1 0")

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            from_edge_list("0 1\n2 3")

    def test_isolated_vertex_rejected(self):
        # vertex 1 exists (count = max id + 1) but has no edges
        with pytest.raises(ValueError, match="disconnected"):
            from_edge_list("0 2")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            from_edge_list("0 1\na b")
        with pytest.raises(ValueError, match="line 1"):
            from_edge_list("0 1 2")
        with pytest.raises(ValueError, match="line 3"):
            from_edge_list("0 1\n1 2\n-1 0")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n  1 2 3 \n", "line 2: expected two vertex ids, got '1 2 3'"),
            ("0 1\n1 2\n 1 x\n", "line 3: vertex ids must be integers, got '1 x'"),
            ("# c\n\t-1 0\n", "line 2: vertex ids must be non-negative, got '-1 0'"),
            ("0 1\n1 1\n", "line 2: self-loop at vertex 1"),
            ("0 1\n2 1\n\n0 2\n2 0\n", "line 5: duplicate edge (0, 2)"),
            # lines of three fields and of one balance each other's count
            ("0 1 2\n1\n", "line 1: expected two vertex ids, got '0 1 2'"),
            ("0 1\n2\n", "line 2: expected two vertex ids, got '2'"),
            # faults in a component without vertex 0, which the walk reaches last
            ("0 1\n2 3\n3 4\n4 2\n3 2\n", "line 5: duplicate edge (2, 3)"),
            ("0 1\n2 3\n3 3\n", "line 3: self-loop at vertex 3"),
            ("0 1\n2 3\n# pad\n", "graph is disconnected: 2 of 4 vertices reachable from vertex 0"),
            ("0 2\n# pad\n", "graph is disconnected: 2 of 3 vertices reachable from vertex 0"),
            (
                "0 1\n2 3\n3 4\n4 2\n# pad\n",
                "graph is disconnected: 2 of 5 vertices reachable from vertex 0",
            ),
            (
                "0 1\n1 3\n",
                "line 2: vertex id 3 is larger than the number of input lines (2), so the graph "
                "is disconnected: a connected graph on 4 vertices needs at least 3 edges",
            ),
            ("", "graph has no vertices"),
            ("# only a comment\n\n", "graph has no vertices"),
            # with faults on two lines, the earlier line's fault wins
            ("0 1\n1 0\n2 2\n", "line 2: duplicate edge (0, 1)"),
            ("0 1\n1 1\n1 0\n", "line 2: self-loop at vertex 1"),
            ("0 1\n1 0\n0 x\n", "line 2: duplicate edge (0, 1)"),
            ("0 1\n0 1\n5 0\n", "line 2: duplicate edge (0, 1)"),
            # ids no graph may hold: negative, or beyond the line count
            ("0 1\n1 -1\n", "line 2: vertex ids must be non-negative, got '1 -1'"),
            (
                "0 1\n1 -9223372036854775808\n",
                "line 2: vertex ids must be non-negative, got '1 -9223372036854775808'",
            ),
            (
                "0 1\n1 9223372036854775807\n",
                "line 2: vertex id 9223372036854775807 is larger than the number of input "
                "lines (2), so the graph is disconnected: a connected graph on "
                "9223372036854775808 vertices needs at least 9223372036854775807 edges",
            ),
            # ids that overflow a 4-byte item
            (
                "0 1\n1 -2147483649\n",
                "line 2: vertex ids must be non-negative, got '1 -2147483649'",
            ),
            (
                "0 1\n1 2147483648\n",
                "line 2: vertex id 2147483648 is larger than the number of input lines (2), so "
                "the graph is disconnected: a connected graph on 2147483649 vertices needs at "
                "least 2147483648 edges",
            ),
            (
                "0 1\n4294967296 1\n",
                "line 2: vertex id 4294967296 is larger than the number of input lines (2), so "
                "the graph is disconnected: a connected graph on 4294967297 vertices needs at "
                "least 4294967296 edges",
            ),
            # ids that overflow an 8-byte item
            (
                "0 1\n1 9223372036854775808\n",
                "line 2: vertex id 9223372036854775808 is larger than the number of input "
                "lines (2), so the graph is disconnected: a connected graph on "
                "9223372036854775809 vertices needs at least 9223372036854775808 edges",
            ),
            (
                "0 1\n123456789012345678901234567890 1\n",
                "line 2: vertex id 123456789012345678901234567890 is larger than the number "
                "of input lines (2), so the graph is disconnected: a connected graph on "
                "123456789012345678901234567891 vertices needs at least "
                "123456789012345678901234567890 edges",
            ),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            from_edge_list(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, lineno", [("0 100000", 1), ("0 1\n1 2\n2 100000\n", 3)])
    def test_id_beyond_line_count_rejected_before_allocating(self, text, lineno):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^line {lineno}: .*disconnected"):
                from_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the largest id is checked before the CSR build allocates anything
        # per vertex; building it up to id 100000 would peak at about 1.6 MB
        assert peak < 1_000_000

    def test_largest_id_may_equal_line_count(self):
        # a path on k + 1 vertices has k edges, so its largest id is k
        g = from_edge_list("".join(f"{i} {i + 1}\n" for i in range(50)))
        assert g.vertex_count == 51
        assert g.edge_count() == 50


class TestPlainChunks:
    """Plain chunks, every line two ids and one space, are read in one JSON
    decode; only the other chunks go through the per-line loop."""

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_generated_text_never_reads_line_by_line(self, monkeypatch, shuffle):
        def read_lines(chunk, ends):
            raise AssertionError("a plain chunk was read line by line")

        text = to_edge_list(double_wheel(5000))
        if shuffle:
            # lines in another order, each edge in either orientation
            text = shuffled_edge_list(text, seed=5)
        monkeypatch.setattr(edgelist, "_read_lines", read_lines)
        assert from_edge_list(text) == double_wheel(5000)

    def test_comment_sends_its_chunk_alone_line_by_line(self, monkeypatch):
        lines = to_edge_list(double_wheel(5000)).splitlines(keepends=True)
        lines.insert(len(lines) // 2, "# a comment\n")
        text = "".join(lines)
        assert len(text) > 2 * _READ_CHUNK
        chunks = []

        def read_lines(chunk, ends):
            chunks.append(chunk)
            return _read_lines(chunk, ends)

        monkeypatch.setattr(edgelist, "_read_lines", read_lines)
        assert from_edge_list(text) == double_wheel(5000)
        assert len(chunks) == 1
        assert "# a comment\n" in chunks[0]
