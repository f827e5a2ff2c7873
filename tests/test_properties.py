"""Property-based checks of the structural invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_edge_classes, reference_index
from topoindices import (
    Graph,
    IndexKind,
    compute_from_partition,
    compute_index,
    degree_partition,
    double_wheel,
    edge_term,
    from_edge_list,
    hanoi,
    neighbor_sum_partition,
    to_edge_list,
)

ALL_KINDS = list(IndexKind)


@st.composite
def connected_graphs(draw, max_vertices=20):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def nearly_regular_graphs(draw, max_vertices=3000):
    """A cycle with a few chords and pendant vertices, so that most vertices
    share one degree and the rest sit anywhere, across scan blocks too."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    edges = {(v, (v + 1) % n) for v in range(n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if u != v:
            edges.add((u, v))
    pendants = draw(st.lists(st.integers(0, n - 1), max_size=4))
    edges.update((u, n + i) for i, u in enumerate(pendants))
    return Graph(n + len(pendants), edges)


labels = st.integers(min_value=1, max_value=10_000)


@given(connected_graphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count()


@given(connected_graphs())
def test_neighbor_sum_totals_squared_degrees(g):
    total = sum(g.neighbor_degree_sum(v) for v in range(g.vertex_count))
    assert total == sum(g.degree(v) ** 2 for v in range(g.vertex_count))


@given(st.one_of(connected_graphs(), nearly_regular_graphs()))
@settings(max_examples=300, deadline=None)
def test_edge_classes_equal_the_reference(g):
    classes = {mode: dict(table) for mode, table in g.edge_classes().items()}
    assert classes == reference_edge_classes(g)


@given(connected_graphs())
def test_partitions_cover_all_edges(g):
    assert degree_partition(g).total() == g.edge_count()
    assert neighbor_sum_partition(g).total() == g.edge_count()


@given(connected_graphs())
@settings(max_examples=50)
def test_partition_equals_edge_sum(g):
    parts = {p.mode: p for p in (degree_partition(g), neighbor_sum_partition(g))}
    for kind in ALL_KINDS:
        direct = compute_index(g, kind)
        grouped = compute_from_partition(parts[kind.labeling], kind)
        assert grouped == direct


@given(connected_graphs())
def test_compute_index_is_the_per_edge_sum(g):
    for kind in ALL_KINDS:
        assert compute_index(g, kind) == reference_index(g, kind)


@pytest.mark.parametrize(
    "g",
    [hanoi(n) for n in range(1, 8)] + [double_wheel(n) for n in (3, 4, 17, 100, 1000)],
    ids=repr,
)
def test_compute_index_is_the_per_edge_sum_on_families(g):
    for kind in ALL_KINDS:
        assert compute_index(g, kind) == reference_index(g, kind)


@given(st.sampled_from(ALL_KINDS), labels, labels)
def test_edge_term_symmetric(kind, a, b):
    assert edge_term(kind, a, b) == edge_term(kind, b, a)


@given(labels, labels)
def test_edge_term_bounds(a, b):
    assert 0.0 < edge_term(IndexKind.GA, a, b) <= 1.0
    assert edge_term(IndexKind.RANDIC, a, b) <= 1.0
    assert edge_term(IndexKind.SUM_CONNECTIVITY, a, b) <= 1 / math.sqrt(2)
    assert edge_term(IndexKind.ABC, a, b) >= 0.0


@given(connected_graphs())
@settings(max_examples=50)
def test_index_values_nonnegative_and_ga_bounded(g):
    m = g.edge_count()
    for kind in ALL_KINDS:
        value = compute_index(g, kind)
        assert value >= 0.0
    assert compute_index(g, IndexKind.GA) <= m + 1e-9
    assert compute_index(g, IndexKind.GA5) <= m + 1e-9


@given(connected_graphs())
def test_edge_list_round_trip(g):
    assert from_edge_list(to_edge_list(g)) == g


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_edge_list_reader_ignores_layout(g, rng):
    lines = []
    for u, v in g.edges():
        if rng.random() < 0.5:
            u, v = v, u
        pad = [rng.choice(["", " ", "\t", "  "]) for _ in range(3)]
        lines.append(f"{pad[0]}{u}{pad[1] or ' '}{v}{pad[2]}")
    lines += rng.choices(["", "   ", "# comment", "  # 1 2", "#3 4"], k=rng.randint(0, len(lines)))
    rng.shuffle(lines)
    assert from_edge_list("\n".join(lines)) == g


@given(connected_graphs())
def test_edges_deterministic(g):
    assert g.edges() == g.edges()
