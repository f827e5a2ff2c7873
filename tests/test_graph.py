import random
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neighbors, reference_edge_classes, shuffled_edge_list
from topoindices import Graph, double_wheel, from_edge_list, graph, hanoi, to_edge_list
from topoindices.graph import _BLOCK, DEGREE, NEIGHBOR_SUM, TYPECODE, _odd_degrees


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n: int) -> Graph:
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def classes(g: Graph) -> dict[str, dict[tuple[int, int], int]]:
    return {mode: dict(table) for mode, table in g.edge_classes().items()}


@pytest.fixture
def rows_read(monkeypatch):
    """The vertex runs whose rows `Graph.edge_classes` reads for P and S."""
    read = []
    slots = graph._slots

    def spy(offsets, runs):
        read.extend(runs)
        return slots(offsets, runs)

    monkeypatch.setattr(graph, "_slots", spy)
    return read


def odd_degrees(g: Graph) -> tuple[Counter[int], int, list[tuple[int, int]]]:
    """The classifier's degree counts, most common degree and runs off it."""
    with memoryview(g._offsets)[1:] as after:
        return _odd_degrees(g._offsets, after)


def assert_odd_degrees(g: Graph) -> None:
    """The classifier's degree counts, and its runs of the vertices off the
    most common degree, the first met of a tie, agree with ``degree``."""
    counts, d0, odd = odd_degrees(g)
    degrees = list(map(g.degree, range(g.vertex_count)))
    assert counts == Counter(degrees)
    assert list(counts) == list(Counter(degrees))
    assert d0 == max(counts, key=counts.__getitem__, default=0)
    assert all(start < end for start, end in odd)
    assert [v for start, end in odd for v in range(start, end)] == [
        v for v, degree in enumerate(degrees) if degree != d0
    ]


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

    @pytest.mark.parametrize(
        "vertex_count, edges", [(2**31, []), (2**32, [(0, 2**31)]), (2**40, [(2**40 - 1, 0)])]
    )
    def test_rejects_a_graph_too_large_for_its_columns_before_allocating(
        self, vertex_count, edges
    ):
        # a list of 2**31 degrees alone would take 16 GiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^graph too large: {vertex_count} vertices"):
                Graph(vertex_count, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_largest_vertex_count_that_fits_is_the_limit(self, monkeypatch):
        monkeypatch.setattr(graph, "_MAX_ITEM", 4)
        assert Graph(4, [(0, 1), (1, 2)]).vertex_count == 4
        with pytest.raises(ValueError, match="^graph too large: 5 vertices and 4 edge ends"):
            Graph(5, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="^graph too large: 4 vertices and 6 edge ends"):
            Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="^graph too large: 5 vertices"):
            from_edge_list("0 1\n1 2\n2 3\n3 4\n")

    def test_adjacency_is_built_from_the_rows(self):
        # rows taken over as written, the first one unsorted
        g = Graph._from_csr(array(TYPECODE, [0, 2, 3, 4]), array(TYPECODE, [2, 1, 0, 0]))
        assert neighbors(g, 0) == frozenset({1, 2})
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

    @pytest.mark.parametrize(
        "g, problem",
        [
            (Graph(0), "graph has no vertices"),
            (Graph(1), None),
            (
                Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                "graph is disconnected: 3 of 6 vertices reachable from vertex 0",
            ),
            # vertex 0's component is the smaller one
            (
                Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),
                "graph is disconnected: 2 of 5 vertices reachable from vertex 0",
            ),
        ],
    )
    def test_messages(self, g, problem):
        assert g.validate() == problem


# The edge ends of double_wheel(300), and a relabelling that moves its hub
# to id 500, so that the walk starts at a ring vertex
DW300 = [end for edge in double_wheel(300).edges() for end in edge]
RELABEL = list(range(601))
RELABEL[0], RELABEL[500] = 500, 0


class TestWalk:
    """One walk over every component finds the rows that repeat an id and
    the size of vertex 0's component."""

    @pytest.mark.parametrize(
        "vertex_count, ends, reached, repeats",
        [
            (0, [], 0, set()),
            (1, [], 1, set()),
            (3, [0, 1, 1, 2, 2, 0], 3, set()),
            # a repeated edge in a component without vertex 0
            (5, [0, 1, 2, 3, 3, 4, 4, 2, 3, 2], 2, {2, 3}),
            # a loop lists its vertex twice in its own row, vertex 0's too
            (3, [0, 0, 1, 2, 2, 2], 1, {0, 2}),
            # a repeated edge repeats an id in both of its endpoints' rows
            (4, [0, 1, 1, 2, 2, 3, 3, 2], 4, {2, 3}),
            # stamps wrap: ring rows read 256 rows after the hub's row meet
            # its stamp, and only the confirming read tells them clean
            (601, DW300, 601, set()),
            # one ring edge repeated: exactly its two rows
            (601, DW300 + [7, 8], 601, {7, 8}),
            # the hub, at id 500, is read after vertex 0, a ring vertex
            (601, [RELABEL[v] for v in DW300], 601, set()),
            (601, [RELABEL[v] for v in DW300 + [7, 8]], 601, {RELABEL[7], RELABEL[8]}),
        ],
    )
    def test_walk(self, vertex_count, ends, reached, repeats):
        assert graph._walk(*graph._csr(vertex_count, ends)) == (reached, repeats)

    def test_walk_holds_no_int_per_vertex(self):
        # relabelled dw(20000): the stamps list, the component array and
        # the mark, 13.6 B per vertex; about 52 B while the component was a
        # list and each stamp the int of a vertex id, and more again with a
        # set of the hub's row to confirm it
        n = 20000
        perm = list(range(2 * n + 1))
        random.Random(5).shuffle(perm)
        g = Graph(2 * n + 1, [(perm[u], perm[v]) for u, v in double_wheel(n).edges()])
        tracemalloc.start()
        try:
            assert graph._walk(g._offsets, g._targets) == (2 * n + 1, set())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * g.vertex_count


@pytest.mark.parametrize(
    "point, expected",
    [
        # before the first run, at its first id, inside it, at its last id,
        # after it, and the whole of a one-id run
        (2, [(3, 7), (9, 10)]),
        (3, [(4, 7), (9, 10)]),
        (5, [(3, 5), (6, 7), (9, 10)]),
        (6, [(3, 6), (9, 10)]),
        (7, [(3, 7), (9, 10)]),
        (9, [(3, 7)]),
        # -1, in no run, takes out none
        (-1, [(3, 7), (9, 10)]),
    ],
)
def test_without_takes_out_one_point(point, expected):
    assert graph._without([(3, 7), (9, 10)], point) == expected


class TestEdgeClasses:
    """The classifier walks only the rows near a vertex of another degree
    than the most common one; each case is held to the reference that
    counts every target slot."""

    @pytest.mark.parametrize(
        "g",
        [
            cycle(3),
            cycle(10),
            Graph(4, [(u, v) for v in range(4) for u in range(v)]),
            # every block of degrees alike, the last one whole or short
            cycle(_BLOCK),
            cycle(3 * _BLOCK + 5),
        ],
    )
    def test_regular_graphs_have_one_class(self, g):
        assert_odd_degrees(g)
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

    @pytest.mark.parametrize("degree", [255, 256, 257])
    def test_hub_past_the_first_block(self, degree):
        # a cycle with a hub in its third block, whose degree fits a byte
        # or not, joined to the cycle's first degree - 2 vertices
        hub = 2 * _BLOCK + 7
        g = Graph(3 * _BLOCK, [*cycle(3 * _BLOCK).edges(), *((hub, v) for v in range(degree - 2))])
        assert g.degree(hub) == degree
        assert odd_degrees(g)[2][-1] == (hub, hub + 1)
        assert_odd_degrees(g)
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("hub", [_BLOCK, 2000], ids=["late-block-first-lane", "short-last-block"])
    def test_hub_swapped_into_a_later_block(self, hub):
        # dw(1000)'s hub swapped with a ring vertex, into the first lane of
        # block 1 or the last lane of the short last block of
        # 2001 % _BLOCK = 209 lanes: the one vertex off d0 = 4
        n = 1000
        ids = list(range(2 * n + 1))
        ids[0], ids[hub] = hub, 0
        g = Graph(2 * n + 1, [(ids[u], ids[v]) for u, v in double_wheel(n).edges()])
        assert odd_degrees(g)[2] == [(hub, hub + 1)]
        assert_odd_degrees(g)
        assert classes(g) == reference_edge_classes(g) == classes(double_wheel(n))

    @pytest.mark.parametrize(
        "g",
        [
            Graph(1000, [(1, 2), (2, 3), (3, 1), (500, 501)]),
            # a 300-leaf star centred in a late block, at its first lane or
            # inside it, the other vertices isolated
            Graph(4 * _BLOCK, [(3 * _BLOCK, v) for v in range(300)]),
            Graph(4 * _BLOCK, [(3 * _BLOCK + 100, v) for v in range(300)]),
        ],
        ids=["triangle-and-edge", "star-first-lane", "star-inside"],
    )
    def test_most_common_degree_0(self, g):
        counts = odd_degrees(g)[0]
        assert counts.most_common(1)[0][0] == 0
        assert_odd_degrees(g)
        assert classes(g) == reference_edge_classes(g)

    def test_tied_most_common_degrees(self):
        # a spider of 300 two-edge legs: 300 leaves of degree 1 and 300
        # middles of degree 2. The degree met first is d0, so numbering the
        # leaves or the middles first picks either; the tables are the same
        legs = 300

        def spider(leaves_first):
            leaves, middles = (0, legs) if leaves_first else (legs, 0)
            hub = 2 * legs
            edges = [(hub, middles + i) for i in range(legs)]
            edges += [(middles + i, leaves + i) for i in range(legs)]
            return Graph(2 * legs + 1, edges)

        d0s = []
        for g in map(spider, (True, False)):
            counts = odd_degrees(g)[0]
            d0s.append(max(counts, key=counts.__getitem__))
            assert counts[1] == counts[2] == legs
            assert_odd_degrees(g)
            assert classes(g) == reference_edge_classes(g) == classes(spider(True))
        assert d0s == [1, 2]

    def test_shuffled_double_wheel(self):
        # the hub's row is one run of ids in shuffled order, 1..2n
        g = from_edge_list(shuffled_edge_list(to_edge_list(double_wheel(700)), seed=3))
        hub_row = g._targets[g._offsets[0] : g._offsets[1]]
        assert list(hub_row) != sorted(hub_row) == list(range(1, 1401))
        assert classes(g) == reference_edge_classes(g) == classes(double_wheel(700))

    def test_relabelled_double_wheel(self):
        # the hub moved to an inner id: its row, every id but its own, is
        # one span, read as one interval, so no ring vertex's row is read
        n = 700
        perm = list(range(2 * n + 1))
        random.Random(5).shuffle(perm)
        g = Graph(2 * n + 1, [(perm[u], perm[v]) for u, v in double_wheel(n).edges()])
        assert 0 < perm[0] < 2 * n
        assert_odd_degrees(g)
        assert classes(g) == reference_edge_classes(g) == classes(double_wheel(n))

    @pytest.mark.parametrize("n", [3, 64, 127])
    def test_small_double_wheels_read_no_ring_row(self, rows_read, n):
        # the hub's row of 2n < _BLOCK slots is read as one span, so P is
        # empty and S is the hub alone. While only rows of _BLOCK slots or
        # more were tested for a span, P and S read 9, 131 and 257 rows
        g = double_wheel(n)
        assert classes(g) == reference_edge_classes(g)
        assert not rows_read

    def test_triangle_and_an_isolated_vertex(self):
        # the highest degree off d0 = 2 is 0, below it: no row is tested
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("isolated", [[0], [0, 12], [10, 11], [5, 12]])
    def test_cycle_with_isolated_vertices_and_a_hub(self, isolated):
        # a 10-cycle, a hub joined to every cycle vertex, and isolated
        # vertices before, after or between them: an isolated id among the
        # cycle's leaves a gap in the hub's row, which is then no span
        size = 11 + len(isolated)
        *ring, hub = [v for v in range(size) if v not in isolated]
        g = Graph(size, [*zip(ring, ring[1:] + ring[:1]), *((hub, v) for v in ring)])
        run = graph._as_run(g._targets[g._offsets[hub] : g._offsets[hub + 1]], hub)
        assert run == (None if 5 in isolated else range(ring[0], ring[-1] + 1))
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize(
        "first, second, spanned",
        [
            # the higher hub's row has a gap, the lower one's is a span
            ([v for v in range(200) if v != 100], range(150), []),
            # both rows are spans, the higher one second
            (range(150), range(100, 300), [301]),
            # equal degrees, and both rows are spans
            (range(10, 50), range(40), [300]),
            (range(10, 50), range(20, 60), [300]),
            (range(10, 50), range(60, 100), [300]),
        ],
    )
    def test_two_hubs_over_a_cycle(self, rows_read, first, second, spanned):
        # hubs 300 and 301 joined to ids of a 300-cycle: only the first hub
        # of the highest degree is tested for a span, and its row, when it
        # is one, is the only hub row left unread; the other is pulled
        # with its targets
        size = 300
        spokes = [*((size, v) for v in first), *((size + 1, v) for v in second)]
        g = Graph(size + 2, [*cycle(size).edges(), *spokes])
        assert classes(g) == reference_edge_classes(g)
        read = {v for start, end in rows_read for v in range(start, end)}
        assert [hub for hub in (300, 301) if hub not in read] == spanned

    @pytest.mark.parametrize("runs", [[(0, 600), (0, 300), (300, 600)], [(0, 400), (150, 600)]])
    def test_hubs_with_overlapping_run_rows(self, runs):
        # each hub lists one run of the leaves 0..599, and every leaf is in
        # one or two runs: only the highest-degree hub's row is read as a
        # span, and the other hubs are pulled with their targets, whose
        # labels replace the span's where the runs overlap
        leaves = 600
        hubs = enumerate(runs, start=leaves)
        g = Graph(leaves + len(runs), [(hub, v) for hub, (start, end) in hubs for v in range(start, end)])
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("gap", [1, 150, 299])
    def test_row_that_is_a_run_but_for_one_id(self, gap):
        # a hub of a cycle lists the run 10..310 with one inner id left out,
        # so its row is no run, and its targets' sums are pulled
        size = 3 * _BLOCK
        hub = size
        row = [v for v in range(10, 311) if v != 10 + gap]
        g = Graph(size + 1, [*cycle(size).edges(), *((hub, v) for v in row)])
        assert graph._as_run(g._targets[g._offsets[hub] : g._offsets[hub + 1]], hub) is None
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize(
        "start, end",
        [(0, 300), (100, 400), (_BLOCK, 2 * _BLOCK + 50), (37, 2 * _BLOCK), (90, 3 * _BLOCK)],
    )
    def test_run_starting_or_ending_mid_block(self, start, end):
        # a cycle and a hub over [start, end): the run's correction changes
        # the labels inside a block of uniform degree
        size = 3 * _BLOCK
        g = Graph(size + 1, [*cycle(size).edges(), *((size, v) for v in range(start, end))])
        assert graph._as_run(g._targets[g._offsets[size] :], size) == range(start, end)
        assert classes(g) == reference_edge_classes(g)

    def test_most_common_degree_of_256_or_more(self):
        # K_300 and a vertex joined to 0..259: d0 = 300, and the rows of 299
        # and of the new vertex are runs that lower the sums of their targets
        edges = [(u, v) for v in range(300) for u in range(v)]
        g = Graph(301, [*edges, *((300, v) for v in range(260))])
        assert Counter(map(g.degree, range(301))).most_common(1) == [(300, 260)]
        assert_odd_degrees(g)
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("run", [260, 380])
    def test_interval_and_pulled_corrections_cancel(self, run):
        # A 200-regular circulant on 600 vertices, with two vertices added
        # so that every old vertex keeps degree d0 = 200: a hub H joined to
        # the run 0..run - 1, each of whose pairs (2j, 2j + 1) loses its
        # edge, and a vertex Q of degree 400 - run joined to 0, 2, 4, ...,
        # each of whose pairs (4m, 4m + 2) loses its edge. H corrects the
        # sums of its run by c = run - 200, and Q, whose row is no run,
        # those of its targets by -c: Q's targets in H's run have d0 * d0
        # again. With run = 380 the label of H's run is the most common
        # one, so H's row, in S, lists ids both of it and of d0 * d0
        size, hub, q = 600, 600, 601
        c, pairs = run - 200, (400 - run) // 2
        dropped = {(2 * j, 2 * j + 1) for j in range(run // 2)}
        dropped |= {(4 * m, 4 * m + 2) for m in range(pairs)}
        edges = [(v, (v + k) % size) for v in range(size) for k in range(1, 101)]
        edges = [e for e in edges if e not in dropped]
        edges += [(hub, v) for v in range(run)]
        edges += [(q, v) for m in range(pairs) for v in (4 * m, 4 * m + 2)]
        g = Graph(size + 2, edges)
        assert {g.degree(v) for v in range(size)} == {200}
        assert (g.degree(hub), g.degree(q)) == (run, 200 - c)
        assert g.neighbor_degree_sum(0) == 200 * 200
        assert g.neighbor_degree_sum(1) == 200 * 200 + c
        labels = Counter((g.degree(v), g.neighbor_degree_sum(v)) for v in range(g.vertex_count))
        assert (labels.most_common(1)[0][0] == (200, 200 * 200 + c)) == (run == 380)
        assert classes(g) == reference_edge_classes(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hubs_over_runs_and_near_runs(self, data):
        # a cycle, hubs each joined to a run of three or more of its
        # vertices, or to such a run with one inner id left out, and a few
        # chords
        size = data.draw(st.integers(3, 3 * _BLOCK))
        edges = set(cycle(size).edges())
        hubs = data.draw(st.integers(1, 3))
        for hub in range(size, size + hubs):
            start = data.draw(st.integers(0, size - 3))
            end = data.draw(st.integers(start + 3, size))
            gap = data.draw(st.none() | st.integers(start + 1, end - 2))
            edges |= {(v, hub) for v in range(start, end) if v != gap}
        for _ in range(data.draw(st.integers(0, 4))):
            u, v = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(size + hubs, edges)
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize(
        "start, end, hub, gap",
        [
            (0, 3 * _BLOCK + 1, 1, None),
            (0, 3 * _BLOCK + 1, 3 * _BLOCK - 1, None),
            (10, 400, 200, None),
            (10, 400, 11, None),
            (10, 400, 398, None),
            # near-misses: one more inner id left out, so the row is no span
            (10, 400, 200, 150),
            (10, 400, 200, 201),
            (10, 400, 11, 398),
            (0, 3 * _BLOCK + 1, 1, 2),
        ],
    )
    def test_hub_inside_its_span(self, start, end, hub, gap):
        # a hub with an inner id, joined to every id of [start, end) but its
        # own, or but its own and `gap`, and a cycle of the other vertices
        size = 3 * _BLOCK + 1
        ring = [v for v in range(size) if v != hub]
        spokes = [(hub, v) for v in range(start, end) if v not in (hub, gap)]
        g = Graph(size, [*zip(ring, ring[1:] + ring[:1]), *spokes])
        run = graph._as_run(g._targets[g._offsets[hub] : g._offsets[hub + 1]], hub)
        assert run == (range(start, end) if gap is None else None)
        assert classes(g) == reference_edge_classes(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hubs_inside_their_spans(self, data):
        # hubs with inner ids, each joined to every id of a span of three
        # or more around it but its own, or with one more inner id left
        # out, a cycle of the other vertices, and a few chords
        size = data.draw(st.integers(6, 3 * _BLOCK))
        hubs = data.draw(st.sets(st.integers(1, size - 2), min_size=1, max_size=3))
        ring = [v for v in range(size) if v not in hubs]
        edges = {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
        for hub in hubs:
            start = data.draw(st.integers(0, hub - 1))
            end = data.draw(st.integers(hub + 2, size))
            gap = data.draw(st.none() | st.integers(start + 1, end - 2))
            edges |= {(min(v, hub), max(v, hub)) for v in range(start, end) if v not in (hub, gap)}
        for _ in range(data.draw(st.integers(0, 4))):
            u, v = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(size, edges)
        assert classes(g) == reference_edge_classes(g)

    def test_more_than_256_labels_from_runs(self):
        # 257 stars whose leaves, 256 to 512 of them, are runs of ids: the
        # largest star's row is read as a span, and the other stars are
        # pulled, each star's leaves and each center with a label of its
        # own, so the id column becomes a list in P's block loop
        centers = range(257)
        sizes = [256 + k for k in centers]
        first = list(accumulate(sizes, initial=len(centers)))
        g = Graph(first[-1], [(k, v) for k in centers for v in range(first[k], first[k + 1])])
        assert len({(g.degree(v), g.neighbor_degree_sum(v)) for v in range(g.vertex_count)}) > 256
        assert classes(g) == reference_edge_classes(g)

    def test_more_than_256_labels(self):
        # a path of hubs, hub k with k + 1 leaves: each hub and each hub's
        # leaves carry a label of their own, so the id column widens
        hubs = 140
        leaves = range(hubs, hubs + hubs * (hubs + 1) // 2)
        edges = [(k, k + 1) for k in range(hubs - 1)]
        edges += zip((k for k in range(hubs) for _ in range(k + 1)), leaves)
        g = Graph(leaves.stop, edges)
        labels = {(g.degree(v), g.neighbor_degree_sum(v)) for v in range(g.vertex_count)}
        assert len(labels) > 256
        assert classes(g) == reference_edge_classes(g)

    @pytest.mark.parametrize("odd", [_BLOCK - 1, _BLOCK])
    def test_one_exception_beside_a_block_boundary(self, odd):
        # two cycles that share vertex `odd`, the one vertex of degree 4
        size = 3 * _BLOCK
        loop = [odd, *range(size, size + 9), odd]
        g = Graph(size + 9, [*cycle(size).edges(), *zip(loop, loop[1:])])
        assert [v for v in range(g.vertex_count) if g.degree(v) != 2] == [odd]
        assert_odd_degrees(g)
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
    extremes = st.sampled_from([-(2**63), -(2**31) - 1, 2**31, 2**32, 2**63 - 1, 2**63])
    bad_ids = st.integers(-3, -1) | st.integers(n, 2 * n) | extremes
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
    returns a simple graph of exactly the input's distinct edges."""
    n, edges = case
    text = "".join(f"{u} {v}\n" for u, v in edges)
    # read from the input, not from the CSR builder both paths share
    distinct = {(u, v) if u < v else (v, u) for u, v in edges}
    for build in (lambda: Graph(n, edges), lambda: from_edge_list(text)):
        try:
            g = build()
        except ValueError:
            continue
        assert_simple(g)
        assert set(g.edges()) == distinct
