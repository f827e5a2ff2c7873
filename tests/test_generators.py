from collections import Counter

import pytest

from conftest import reference_hanoi
from topoindices import (
    Graph,
    double_wheel,
    from_edge_list,
    hanoi,
    to_edge_list,
)


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

    def test_cap_is_configurable(self):
        with pytest.raises(ValueError):
            hanoi(3, max_n=2)
        assert hanoi(2, max_n=2).vertex_count == 9


class TestEdgeListRoundTrip:
    @pytest.mark.parametrize("g", [double_wheel(5), hanoi(3), Graph(2, [(0, 1)])])
    def test_round_trip(self, g):
        assert from_edge_list(to_edge_list(g)) == g

    def test_serialized_form(self):
        assert to_edge_list(Graph(3, [(0, 1), (1, 2), (0, 2)])) == "0 1\n0 2\n1 2\n"


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
