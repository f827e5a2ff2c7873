import hashlib
import tracemalloc
from array import array
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_double_wheel,
    reference_from_edge_list,
    reference_hanoi,
    sha256,
    shuffled_edge_list,
)
from topoindices import (
    DW_MAX_N,
    Graph,
    double_wheel,
    from_edge_list,
    hanoi,
    to_edge_list,
)
from topoindices.cli import main
from topoindices.closed_forms import FAMILIES
from topoindices.generators import _LANE_BLOCK
from topoindices.graph import TYPECODE


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
        # the CSR columns of double_wheel(1000) byte for byte, rows in builder order
        g = double_wheel(1000)
        assert hashlib.sha256(g._offsets.tobytes()).hexdigest() == (
            "d0dcb9e208dde5bb2fb63863b45da188b9471824f3de7692ac7fe1b585038f0f"
        )
        assert hashlib.sha256(g._targets.tobytes()).hexdigest() == (
            "8aa93644066f419a9a74d9d95af7934b45951a65cc121725604ad54aebf12372"
        )

    def test_ring_structure(self):
        # hub 0, rings 1..n and n+1..2n, consecutive around each cycle
        g = double_wheel(4)
        assert g.neighbors(1) == frozenset({0, 2, 4})
        assert g.neighbors(5) == frozenset({0, 6, 8})


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
                a, b = sorted(g.neighbors(v))
                assert b in g.neighbors(a)

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
    """Each level is rewritten a block of ``_LANE_BLOCK`` bytes at a time."""

    def test_ragged_multi_block_levels_match_reference(self):
        n = 10
        for k in (n - 1, n):
            level_bytes = 3 * 3**k * array(TYPECODE).itemsize
            # several blocks, the last one ragged
            assert level_bytes > 2 * _LANE_BLOCK
            assert level_bytes % _LANE_BLOCK != 0
        assert hanoi(n) == reference_hanoi(n)

    def test_row_order_pinned(self):
        # the CSR columns of hanoi(11) byte for byte, rows in builder order
        g = hanoi(11)
        assert hashlib.sha256(g._offsets.tobytes()).hexdigest() == (
            "7a54c07b8e30c13ac7aee0a817865b35d6e58c4e79857d048ff5b248b5c7419d"
        )
        assert hashlib.sha256(g._targets.tobytes()).hexdigest() == (
            "279e1a566c16d6561644e64d835752b74fc12d7ebb5ae910914d4fefb8bde3b4"
        )


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
    """Flat CSR arrays: a few 8-byte slots per vertex, not a set per vertex
    (a tuple of frozensets kept about 320 B per vertex of hanoi(10))."""

    @pytest.fixture(scope="class")
    def hanoi10(self):
        return retained_and_peak_bytes(hanoi, 10)

    def test_retained_bytes_per_vertex(self, hanoi10):
        for g, retained, _ in (hanoi10, retained_and_peak_bytes(double_wheel, 20000)):
            assert retained / g.vertex_count < 64

    def test_hanoi_build_peak(self, hanoi10):
        _, _, peak = hanoi10
        assert peak < 8_000_000

    def test_double_wheel_build_peak(self):
        # 2.26x while the hub row was prepended by concatenating two arrays
        _, retained, peak = retained_and_peak_bytes(double_wheel, 100_000)
        assert peak <= 1.25 * retained

    def test_edge_classes_peak(self):
        # 1,975,128 B while lists of degrees, sums, codes and ids were held
        # at once; only the degrees and the ids are held now
        g = hanoi(10)
        assert g._classes is None
        _, _, peak = retained_and_peak_bytes(Graph.edge_classes, g)
        assert peak <= 0.6 * 1_975_128

    @pytest.mark.parametrize(
        "build, n, before", [(hanoi, 10, 1_005_505), (double_wheel, 100_000, 3_250_584)]
    )
    def test_edge_classes_peak_by_exception(self, build, n, before):
        # `before`: the peak when every slot was counted, with the degrees and
        # the ids the only vertex-length lists. Walking only T's rows keeps to
        # it; a set or dict of T (every vertex of the double wheel) would not.
        g = build(n)
        _, _, peak = retained_and_peak_bytes(Graph.edge_classes, g)
        assert peak <= 1.05 * before


class TestEdgeListMemory:
    """Neither direction of the edge-list path holds a Python object per
    vertex or per edge: parsing dw(5000) peaked at 5.8 MB and writing
    dw(20000) at 14.1 MB when they held per-vertex sets and whole-graph
    lists of pairs and lines."""

    def test_parse_peak(self):
        _, _, peak = retained_and_peak_bytes(from_edge_list, to_edge_list(double_wheel(5000)))
        assert peak <= 0.7 * 5_784_615

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
        assert to_edge_list(from_edge_list(shuffled)) == to_edge_list(double_wheel(20000))

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
        assert from_edge_list(text) == from_edge_list(shuffled)
        assert_same_outcome(text + "0 1" + newline + "5 5")

    @pytest.mark.parametrize("last", ["1 0", "9 9", "0 x", "0 90000"])
    def test_late_fault_after_early_duplicate(self, shuffled, last):
        # a duplicate on line 2 outranks a fault many chunks later
        first = shuffled.split("\n", 1)[0]
        u, v = first.split()
        assert_same_outcome(f"{first}\n{v} {u}\n{shuffled}{last}\n")
        assert_same_outcome(f"{shuffled}{last}\n")


def assert_same_outcome(text):
    """``from_edge_list`` returns the set-based reference's graph, or raises
    its exact error."""
    try:
        expected = reference_from_edge_list(text)
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            from_edge_list(text)
        assert str(info.value) == str(error)
    else:
        assert from_edge_list(text) == expected


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
            ("0 1\n2 3\n# pad\n", "graph is disconnected: 2 of 4 vertices reachable from vertex 0"),
            ("0 2\n# pad\n", "graph is disconnected: 2 of 3 vertices reachable from vertex 0"),
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
        # rows are allocated up to the largest id read so far, so an empty
        # array per vertex id up to 100000 would take about 9 MB
        assert peak < 1_000_000

    def test_largest_id_may_equal_line_count(self):
        # a path on k + 1 vertices has k edges, so its largest id is k
        g = from_edge_list("".join(f"{i} {i + 1}\n" for i in range(50)))
        assert g.vertex_count == 51
        assert g.edge_count() == 50
