import random

import pytest

from conftest import random_connected_graph, reference_index
from topoindices import (
    DEGREE,
    NEIGHBOR_SUM,
    Graph,
    IndexKind,
    compute_index,
    degree_partition,
    double_wheel,
    hanoi,
    neighbor_sum_partition,
)


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestDegreePartition:
    def test_triangle_single_class(self):
        assert degree_partition(triangle()).classes == {(2, 2): 3}

    @pytest.mark.parametrize("n", [3, 4, 7, 33, 64])
    def test_double_wheel_two_classes(self, n):
        part = degree_partition(double_wheel(n))
        assert part.classes == {(3, 3): 2 * n, (3, 2 * n): 2 * n}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_hanoi_two_classes(self, n):
        numerator = 3 ** (n + 1) - 15
        assert numerator % 2 == 0
        part = degree_partition(hanoi(n))
        assert part.classes == {(2, 3): 6, (3, 3): numerator // 2}

    def test_hanoi_one_disc(self):
        assert degree_partition(hanoi(1)).classes == {(2, 2): 3}


class TestNeighborSumPartition:
    def test_triangle_single_class(self):
        assert neighbor_sum_partition(triangle()).classes == {(4, 4): 3}

    @pytest.mark.parametrize("n", [3, 4, 7, 33, 64])
    def test_double_wheel_two_classes(self, n):
        part = neighbor_sum_partition(double_wheel(n))
        assert part.classes == {
            (2 * n + 6, 2 * n + 6): 2 * n,
            (2 * n + 6, 6 * n): 2 * n,
        }

    @pytest.mark.parametrize("n", range(3, 7))
    def test_hanoi_four_classes(self, n):
        numerator = 3 ** (n + 1) - 33
        assert numerator % 2 == 0
        part = neighbor_sum_partition(hanoi(n))
        assert part.classes == {
            (6, 8): 6,
            (8, 8): 3,
            (8, 9): 6,
            (9, 9): numerator // 2,
        }

    def test_hanoi_two_discs_differs(self):
        # at n = 2 the corner triangles touch, so the general table does
        # not apply yet; this pins the n >= 3 validity floor
        assert neighbor_sum_partition(hanoi(2)).classes == {(6, 8): 6, (8, 8): 6}


class TestTotals:
    @pytest.mark.parametrize(
        "g", [triangle(), double_wheel(3), double_wheel(12), hanoi(1), hanoi(4)]
    )
    def test_counts_cover_every_edge(self, g):
        assert degree_partition(g).total() == g.edge_count()
        assert neighbor_sum_partition(g).total() == g.edge_count()

    def test_counts_cover_every_edge_random(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng, max_vertices=30)
            assert degree_partition(g).total() == g.edge_count()
            assert neighbor_sum_partition(g).total() == g.edge_count()

    def test_no_empty_classes_stored(self):
        for g in (double_wheel(5), hanoi(3)):
            for part in (degree_partition(g), neighbor_sum_partition(g)):
                assert all(count >= 1 for count in part.classes.values())
                assert all(lo <= hi for lo, hi in part.classes)

    def test_sorted_items_deterministic(self):
        part = neighbor_sum_partition(hanoi(3))
        assert part.sorted_items() == sorted(part.classes.items())


class TestCachedClasses:
    def test_mutating_a_partition_leaves_the_graph_alone(self):
        g = hanoi(4)
        before = {k: compute_index(g, k) for k in IndexKind}
        degree_partition(g).classes[(3, 3)] = 0
        neighbor_sum_partition(g).classes.clear()
        assert degree_partition(g).classes == {(2, 3): 6, (3, 3): 114}
        assert neighbor_sum_partition(g).classes == {(6, 8): 6, (8, 8): 3, (8, 9): 6, (9, 9): 105}
        assert {k: compute_index(g, k) for k in IndexKind} == before

    def test_cached_tables_are_read_only(self):
        classes = triangle().edge_classes()
        assert set(classes) == {DEGREE, NEIGHBOR_SUM}
        with pytest.raises(TypeError):
            classes[DEGREE] = {}
        for table in classes.values():
            with pytest.raises(TypeError):
                table[(1, 1)] = 1

    def test_cache_does_not_affect_equality(self):
        g, fresh = hanoi(3), hanoi(3)
        g.edge_classes()
        assert g == fresh
        assert hash(g) == hash(fresh)

    def test_a_rebuilt_graph_fills_the_cache_lazily(self):
        g = double_wheel(5)
        copy = Graph(g.vertex_count, g.edges())
        assert copy._classes is None
        assert copy.validate() is None
        assert degree_partition(copy).classes == {(3, 3): 10, (3, 10): 10}
        for kind in IndexKind:
            assert compute_index(copy, kind) == reference_index(copy, kind)
