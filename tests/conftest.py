import math
import random

from topoindices import Graph, IndexKind, edge_term


def random_connected_graph(rng: random.Random, max_vertices: int = 50) -> Graph:
    """Random connected simple graph: a random spanning tree plus extras."""
    n = rng.randint(2, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def reference_double_wheel(n: int) -> Graph:
    """Double wheel from its edge list: both rings, then the hub's spokes.

    Same numbering as :func:`topoindices.double_wheel`.
    """
    edges: list[tuple[int, int]] = []
    for start in (1, n + 1):
        for i in range(n):
            edges.append((start + i, start + (i + 1) % n))
    edges.extend((0, v) for v in range(1, 2 * n + 1))
    return Graph(2 * n + 1, edges)


def reference_hanoi(n: int) -> Graph:
    """Hanoi graph by the move rule, one state at a time.

    Disc ``i`` may move from peg ``a`` to peg ``b`` only when no smaller
    disc sits on either peg, so between any two pegs at most one move
    exists: the smaller of the two top discs crosses over. Same numbering
    as :func:`topoindices.hanoi`.
    """
    size = 3**n
    # place[i] is the positional weight of disc i in the vertex id.
    place = [3 ** (n - 1 - i) for i in range(n)]
    edges: list[tuple[int, int]] = []
    for state in range(size):
        # top[p] = smallest disc on peg p, or None if the peg is empty.
        top: list[int | None] = [None, None, None]
        rest = state
        for disc in range(n):
            peg, rest = divmod(rest, place[disc])
            if top[peg] is None:
                top[peg] = disc
        for a in range(3):
            for b in range(a + 1, 3):
                ta, tb = top[a], top[b]
                if ta is None and tb is None:
                    continue
                if tb is None or (ta is not None and ta < tb):
                    disc, src, dst = ta, a, b
                else:
                    disc, src, dst = tb, b, a
                other = state + (dst - src) * place[disc]
                if state < other:
                    edges.append((state, other))
    return Graph(size, edges)


def reference_index(g: Graph, kind: IndexKind) -> float:
    """Index value summed edge by edge from per-vertex label queries."""
    if kind in (IndexKind.ABC4, IndexKind.GA5):
        lab = [g.neighbor_degree_sum(v) for v in range(g.vertex_count)]
    else:
        lab = [g.degree(v) for v in range(g.vertex_count)]
    return math.fsum(edge_term(kind, lab[u], lab[v]) for u, v in g.edges())
