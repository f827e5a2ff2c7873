import pytest

from topoindices import Graph, double_wheel, hanoi


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 3)])

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_from_adjacency_reads_a_one_shot_generator(self):
        rows = ([u for u in range(3) if u != v] for v in range(3))
        g = Graph.from_adjacency(rows)
        assert g == triangle()
        assert g.validate() is None

    def test_adjacency_is_built_from_the_rows(self):
        g = Graph.from_adjacency([[2, 1], [0], [0]])
        assert g.neighbors(0) == frozenset({1, 2})
        assert g.edges() == [(0, 1), (0, 2)]

    def test_equality_ignores_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_with_a_non_graph_is_left_to_the_other_operand(self):
        assert triangle().__eq__("x") is NotImplemented
        assert triangle() != "x"
        assert (triangle() == 1) is False


class TestDegree:
    def test_triangle_is_2_regular(self):
        g = triangle()
        assert [g.degree(v) for v in range(3)] == [2, 2, 2]

    def test_double_wheel_hub_degree_is_2n(self):
        assert double_wheel(5).degree(0) == 10

    def test_hanoi_corner_degree(self):
        # brute-force over the adjacency: the all-on-one-peg states
        h = hanoi(3)
        degree_two = [v for v in range(h.vertex_count) if h.degree(v) == 2]
        assert 0 in degree_two
        assert h.degree(0) == 2

    def test_out_of_range_vertex(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.degree(3)
        with pytest.raises(ValueError):
            g.degree(-1)


class TestNeighborDegreeSum:
    def test_double_wheel_rim_vertex(self):
        # two ring neighbors of degree 3 plus the hub of degree 2n
        for n in (3, 4, 10):
            g = double_wheel(n)
            assert g.neighbor_degree_sum(1) == 2 * n + 6

    def test_hanoi_corner(self):
        for n in (2, 3, 4):
            assert hanoi(n).neighbor_degree_sum(0) == 6

    def test_path_of_two(self):
        g = Graph(2, [(0, 1)])
        assert g.neighbor_degree_sum(0) == 1
        assert g.neighbor_degree_sum(1) == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            triangle().neighbor_degree_sum(7)


class TestEdges:
    def test_triangle_enumeration(self):
        assert triangle().edges() == [(0, 1), (0, 2), (1, 2)]

    def test_edge_counts_match_families(self):
        assert len(double_wheel(3).edges()) == 12
        assert len(hanoi(2).edges()) == 3 * (3**2 - 1) // 2

    def test_deterministic(self):
        g = double_wheel(6)
        assert g.edges() == g.edges()

    def test_normalized_and_unique(self):
        for g in (triangle(), double_wheel(4), hanoi(2)):
            es = g.edges()
            assert all(u < v for u, v in es)
            assert len(es) == len(set(es)) == g.edge_count()


class TestHandshake:
    @pytest.mark.parametrize("g", [triangle(), double_wheel(3), double_wheel(7), hanoi(3)])
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * len(g.edges())

    @pytest.mark.parametrize("g", [triangle(), double_wheel(4), hanoi(3)])
    def test_neighbor_sum_total_is_sum_of_squared_degrees(self, g):
        total = sum(g.neighbor_degree_sum(v) for v in range(g.vertex_count))
        assert total == sum(g.degree(v) ** 2 for v in range(g.vertex_count))


class TestValidate:
    def test_valid_graphs(self):
        assert triangle().validate() is None
        assert double_wheel(3).validate() is None
        assert Graph(1).validate() is None

    def test_empty_graph(self):
        assert "no vertices" in Graph(0).validate()

    def test_asymmetric_adjacency(self):
        g = Graph.from_adjacency([{1}, set()])
        assert "asymmetric" in g.validate()

    def test_self_loop(self):
        g = Graph.from_adjacency([{0, 1}, {0}])
        assert "self-loop" in g.validate()

    def test_out_of_range_neighbor(self):
        g = Graph.from_adjacency([{5}])
        assert "out-of-range" in g.validate()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1], [0, 5]], "vertex 1 lists out-of-range neighbor 5"),
            ([[1], [0, -2]], "vertex 1 lists out-of-range neighbor -2"),
            ([[1], [1, 0]], "self-loop at vertex 1"),
            ([[1, 2], [0], []], "asymmetric adjacency: 2 is a neighbor of 0 but 0 is not a neighbor of 2"),
            ([[1, 1], [0]], "vertex 0 lists neighbor 1 twice"),
        ],
    )
    def test_from_adjacency_violations_named(self, rows, message):
        assert Graph.from_adjacency(rows).validate() == message

    def test_disconnected(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert "disconnected" in two_triangles.validate()
