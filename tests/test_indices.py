import math

import pytest

from conftest import reference_index
from topoindices import (
    Graph,
    IndexKind,
    compute_from_partition,
    compute_index,
    degree_partition,
    double_wheel,
    edge_term,
    hanoi,
    neighbor_sum_partition,
)
from topoindices.partition import EdgePartition

ALL_KINDS = list(IndexKind)


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestEdgeTerm:
    def test_randic(self):
        assert edge_term(IndexKind.RANDIC, 3, 3) == pytest.approx(1 / 3)
        assert edge_term(IndexKind.RANDIC, 2, 2) == pytest.approx(0.5)

    def test_sum_connectivity(self):
        assert edge_term(IndexKind.SUM_CONNECTIVITY, 2, 3) == pytest.approx(1 / math.sqrt(5))

    def test_abc(self):
        assert edge_term(IndexKind.ABC, 3, 3) == pytest.approx(2 / 3)
        assert edge_term(IndexKind.ABC, 1, 1) == 0.0

    def test_ga_equal_labels_is_one(self):
        for a in (1, 2, 7, 100):
            assert edge_term(IndexKind.GA, a, a) == pytest.approx(1.0)
            assert edge_term(IndexKind.GA5, a, a) == pytest.approx(1.0)

    def test_ga(self):
        assert edge_term(IndexKind.GA, 2, 3) == pytest.approx(2 * math.sqrt(6) / 5)

    def test_s_label_kinds_reuse_the_weight_forms(self):
        for a, b in [(6, 8), (8, 9), (12, 18)]:
            assert edge_term(IndexKind.ABC4, a, b) == edge_term(IndexKind.ABC, a, b)
            assert edge_term(IndexKind.GA5, a, b) == edge_term(IndexKind.GA, a, b)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetry_is_exact(self, kind):
        for a, b in [(2, 3), (3, 10), (6, 8), (9, 9), (1, 500)]:
            assert edge_term(kind, a, b) == edge_term(kind, b, a)

    @pytest.mark.parametrize("kind", ["randic", "abc", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda kind: edge_term(kind, 2, 3),
            lambda kind: compute_index(double_wheel(3), kind),
            lambda kind: compute_from_partition(degree_partition(double_wheel(3)), kind),
        ],
        ids=["edge_term", "compute_index", "compute_from_partition"],
    )
    def test_rejects_a_kind_name(self, call, kind):
        # edge_term's last branch would take it and give the GA term; the
        # sums would read its labeling and raise AttributeError
        with pytest.raises(TypeError, match=f"kind must be an IndexKind member, got {kind!r}"):
            call(kind)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_nonpositive_labels(self, kind):
        with pytest.raises(ValueError):
            edge_term(kind, 0, 3)
        with pytest.raises(ValueError):
            edge_term(kind, 3, 0)

    def test_bounds(self):
        for a in range(1, 20):
            for b in range(a, 20):
                assert 0 < edge_term(IndexKind.GA, a, b) <= 1
                assert edge_term(IndexKind.RANDIC, a, b) <= 1
                assert edge_term(IndexKind.SUM_CONNECTIVITY, a, b) <= 1 / math.sqrt(2)
                assert edge_term(IndexKind.ABC, a, b) >= 0


class TestComputeIndex:
    def test_triangle_randic(self):
        assert compute_index(triangle(), IndexKind.RANDIC) == pytest.approx(1.5)

    def test_triangle_ga(self):
        assert compute_index(triangle(), IndexKind.GA) == pytest.approx(3.0)

    def test_path_of_two_abc_is_zero(self):
        assert compute_index(Graph(2, [(0, 1)]), IndexKind.ABC) == 0.0

    def test_labeling_selection(self):
        # on the triangle degrees are 2 but neighbor sums are 4, so the
        # S-label kinds must weigh (4, 4), not (2, 2)
        g = triangle()
        assert compute_index(g, IndexKind.GA5) == pytest.approx(3.0)
        assert compute_index(g, IndexKind.ABC4) == pytest.approx(3 * math.sqrt(6 / 16))

    def test_hanoi3_abc_oracle(self):
        # independent arithmetic over the degree classes (2,3) x 6, (3,3) x 33
        expected = 6 * math.sqrt(3 / 6) + 33 * (2 / 3)
        assert expected == pytest.approx(3 * math.sqrt(2) + 22)
        value = compute_index(hanoi(3), IndexKind.ABC)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_double_wheel3_randic_oracle(self):
        expected = 6 * (1 / 3) + 6 / math.sqrt(18)
        value = compute_index(double_wheel(3), IndexKind.RANDIC)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_hanoi3_ga5_oracle(self):
        # classes (6,8) x 6, (8,8) x 3, (8,9) x 6, (9,9) x 24
        expected = 6 * (2 * math.sqrt(48) / 14) + 3 + 6 * (2 * math.sqrt(72) / 17) + 24
        value = compute_index(hanoi(3), IndexKind.GA5)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_double_wheel3_abc4_oracle(self):
        # classes (12,12) x 6, (12,18) x 6
        expected = 6 * math.sqrt(22 / 144) + 6 * math.sqrt(28 / 216)
        value = compute_index(double_wheel(3), IndexKind.ABC4)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative(self, kind):
        for g in (triangle(), double_wheel(4), hanoi(2)):
            assert compute_index(g, kind) >= 0.0


class TestComputeFromPartition:
    def test_two_class_weighted_sum(self):
        n = 5
        part = EdgePartition("degree", {(3, 3): 2 * n, (3, 2 * n): 2 * n})
        expected = 2 * n / 3 + 2 * n / math.sqrt(6 * n)
        assert compute_from_partition(part, IndexKind.RANDIC) == pytest.approx(expected)

    def test_regular_class_ga(self):
        part = EdgePartition("degree", {(2, 2): 3})
        assert compute_from_partition(part, IndexKind.GA) == pytest.approx(3.0)

    def test_mode_mismatch_rejected(self):
        deg = degree_partition(triangle())
        with pytest.raises(ValueError, match="neighbor_sum"):
            compute_from_partition(deg, IndexKind.ABC4)
        ns = neighbor_sum_partition(triangle())
        with pytest.raises(ValueError, match="degree"):
            compute_from_partition(ns, IndexKind.RANDIC)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("build", [lambda: double_wheel(6), lambda: hanoi(3), triangle])
    def test_partition_equivalence(self, kind, build):
        g = build()
        direct = compute_index(g, kind)
        parts = {p.mode: p for p in (degree_partition(g), neighbor_sum_partition(g))}
        from_part = compute_from_partition(parts[kind.labeling], kind)
        assert from_part == direct

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_published_hanoi_tables(self, kind, n):
        # typed in, not read from the graph: the degree table, and the
        # published neighbor-sum table plus its (9, 9) class
        edges = 3 * (3**n - 1) // 2
        tables = {
            "degree": {(2, 3): 6, (3, 3): edges - 6},
            "neighbor_sum": {(6, 8): 6, (8, 8): 3, (8, 9): 6, (9, 9): (3 ** (n + 1) - 33) // 2},
        }
        part = EdgePartition(kind.labeling, tables[kind.labeling])
        assert compute_from_partition(part, kind) == compute_index(hanoi(n), kind)


class TestOneSummationRule:
    """Both evaluators add ``count * term`` exactly and round once."""

    def test_evaluators_agree_bit_for_bit(self):
        # fsum over rounded count * term products differed by 1 ulp on 78 of
        # these 432 triples, e.g. dw(3) abc4: 0x1.20595f00c3174p+2 from the
        # partition against 0x1.20595f00c3175p+2 edge by edge
        graphs = [(f"dw({n})", double_wheel, n) for n in range(3, 65)]
        graphs += [(f"hanoi({n})", hanoi, n) for n in range(1, 11)]
        mismatches = []
        for name, build, n in graphs:
            g = build(n)
            parts = {p.mode: p for p in (degree_partition(g), neighbor_sum_partition(g))}
            for kind in ALL_KINDS:
                direct = compute_index(g, kind)
                grouped = compute_from_partition(parts[kind.labeling], kind)
                if grouped != direct:
                    mismatches.append((name, kind.value, grouped.hex(), direct.hex()))
        assert mismatches == []

    def test_large_counts_round_like_fsum_of_every_edge(self):
        counts = {(2, 3): 100_003, (3, 3): 7, (3, 10): 65_537}
        part = EdgePartition("degree", counts)
        for kind in (IndexKind.RANDIC, IndexKind.SUM_CONNECTIVITY, IndexKind.ABC, IndexKind.GA):
            terms = [edge_term(kind, a, b) for (a, b), count in counts.items() for _ in range(count)]
            assert compute_from_partition(part, kind) == math.fsum(terms)

    def test_empty_partition_sums_to_zero(self):
        assert compute_from_partition(EdgePartition("degree", {}), IndexKind.RANDIC) == 0.0

    @pytest.fixture(scope="class")
    def hanoi11(self):
        return hanoi(11)

    @pytest.mark.parametrize("kind", [IndexKind.RANDIC, IndexKind.GA5])
    def test_past_the_golden_range(self, hanoi11, kind):
        assert compute_index(hanoi11, kind) == reference_index(hanoi11, kind)
