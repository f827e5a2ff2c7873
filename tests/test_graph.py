from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_edge_classes
from topoindices import Graph, double_wheel, from_edge_list, hanoi
from topoindices.graph import DEGREE, NEIGHBOR_SUM, TYPECODE


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n: int) -> Graph:
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def classes(g: Graph) -> dict[str, dict[tuple[int, int], int]]:
    return {mode: dict(table) for mode, table in g.edge_classes().items()}


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

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 5)], "edge (1, 5) has an endpoint outside [0, 2)"),
            ([(0, 1), (1, -2)], "edge (1, -2) has an endpoint outside [0, 2)"),
            ([(0, 1), (1, 1)], "self-loop at vertex 1"),
        ],
        ids=["beyond", "negative", "self-loop"],
    )
    def test_violations_named(self, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(2, edges)
        assert str(info.value) == message

    def test_adjacency_is_built_from_the_rows(self):
        # rows taken over as written, the first one unsorted
        g = Graph._from_csr(array(TYPECODE, [0, 2, 3, 4]), array(TYPECODE, [2, 1, 0, 0]))
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

    def test_disconnected(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert "disconnected" in two_triangles.validate()


class TestEdgeClasses:
    """The classifier walks only the rows near a vertex of another degree
    than the most common one; each case is held to the reference that
    counts every target slot."""

    @pytest.mark.parametrize(
        "g", [cycle(3), cycle(10), Graph(4, [(u, v) for v in range(4) for u in range(v)])]
    )
    def test_regular_graphs_have_one_class(self, g):
        d, m = g.degree(0), g.edge_count()
        expected = {DEGREE: {(d, d): m}, NEIGHBOR_SUM: {(d * d, d * d): m}}
        assert classes(g) == reference_edge_classes(g) == expected

    @pytest.mark.parametrize("leaves", [1, 2, 3, 7])
    def test_stars(self, leaves):
        # the hub is the one vertex of another degree, and every leaf its neighbor
        g = star(leaves)
        assert classes(g) == reference_edge_classes(g)
        assert classes(g)[DEGREE] == {(1, leaves): leaves}

    def test_a_vertex_near_another_degree_can_carry_the_common_label(self):
        # a 10-cycle with a pendant path 0 - 10 - 11: vertex 10 has degree 2,
        # the most common one, and neighbors of degrees 3 and 1
        g = Graph(12, [(v, (v + 1) % 10) for v in range(10)] + [(0, 10), (10, 11)])
        assert Counter(map(g.degree, range(12))).most_common(1) == [(2, 10)]
        assert (g.degree(10), g.neighbor_degree_sum(10)) == (2, 4)
        assert classes(g) == reference_edge_classes(g)
        assert classes(g)[NEIGHBOR_SUM] == {
            (4, 4): 6, (4, 5): 2, (5, 6): 2, (4, 6): 1, (2, 4): 1,
        }

    def test_most_common_degree_under_half_the_vertices(self):
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4)])
        counts = Counter(map(g.degree, range(7)))
        assert 2 * max(counts.values()) < g.vertex_count
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_edges_gives_two_empty_tables(self, n):
        empty = {DEGREE: {}, NEIGHBOR_SUM: {}}
        assert classes(Graph(n)) == reference_edge_classes(Graph(n)) == empty

    @pytest.mark.parametrize(
        "g",
        [hanoi(n) for n in range(1, 10)] + [double_wheel(n) for n in (3, 4, 700)],
        ids=[f"hanoi{n}" for n in range(1, 10)] + [f"dw{n}" for n in (3, 4, 700)],
    )
    def test_families(self, g):
        # hanoi(9) spans many scan blocks; the dw(700) hub row spans several
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize(
        "rows",
        [[{5}], [{5}, {0}], [[-1], [0]], [[1], [0, 2]], [[1], [0, -(2**63)]], [[1], [0, 2**63 - 1]]],
    )
    def test_a_neighbor_out_of_range_is_rejected(self, rows):
        # the classifier reads ids unchecked, and no graph it is given can
        # hold one outside [0, V): the constructor rejects each such row
        edges = [(v, u) for v, row in enumerate(rows) for u in row]
        with pytest.raises(ValueError, match="outside"):
            Graph(len(rows), edges)


def assert_simple(g: Graph) -> None:
    """Rows in range, free of loops and repeats, and symmetric; both
    classifiers agree on them."""
    n = g.vertex_count
    rows = [list(g._targets[g._offsets[v] : g._offsets[v + 1]]) for v in range(n)]
    for v, row in enumerate(rows):
        assert all(0 <= u < n and u != v for u in row)
        assert len(set(row)) == len(row)
        assert all(v in rows[u] for u in row)
    assert classes(g) == reference_edge_classes(g)


@st.composite
def edge_lists(draw):
    """A vertex count and edges over it: a spanning tree, often with more
    edges, loops, repeats and ids negative or out of range added."""
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ids = st.integers(0, n - 1)
    bad_ids = st.integers(-3, -1) | st.integers(n, 2 * n) | st.sampled_from([-(2**63), 2**63 - 1])
    faults = st.one_of(
        st.tuples(ids, ids),
        ids.map(lambda u: (u, u)),
        st.sampled_from(edges or [(0, 0)]).map(lambda e: e[::-1]),
        st.tuples(ids, bad_ids),
    )
    for fault in draw(st.lists(faults, max_size=4)):
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_every_graph_built_is_simple(case):
    """Each builder either rejects the edges with ``ValueError`` or
    returns a simple graph."""
    n, edges = case
    text = "".join(f"{u} {v}\n" for u, v in edges)
    for build in (lambda: Graph(n, edges), lambda: from_edge_list(text)):
        try:
            g = build()
        except ValueError:
            continue
        assert_simple(g)
