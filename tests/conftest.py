import hashlib
import math
import os
import random
from pathlib import Path

from topoindices import Graph, IndexKind, edge_term

# A plain `pytest` finds the package through `pythonpath` in pyproject.toml;
# child processes that run `python -m topoindices` find it the same way.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def random_connected_graph(rng: random.Random, max_vertices: int = 50) -> Graph:
    """Random connected simple graph: a random spanning tree plus extras."""
    n = rng.randint(2, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shuffled_edge_list(text: str, seed: int) -> str:
    """The same edges, lines in a seeded random order, each edge in a
    random orientation."""
    rng = random.Random(seed)
    lines = text.splitlines()
    rng.shuffle(lines)
    return "".join(
        f"{v} {u}\n" if rng.random() < 0.5 else f"{u} {v}\n" for u, v in map(str.split, lines)
    )


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


def reference_from_edge_list(text: str) -> Graph:
    """Edge-list parser with one neighbor set per vertex, line by line.

    Same format, checks, error messages and check order as
    :func:`topoindices.from_edge_list`: each line's faults are found as it
    is read, a duplicate by a lookup in the earlier endpoint's set.
    """
    lines = text.splitlines()
    line_count = len(lines)
    adj: list[set[int]] = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            a, b = raw.split()
            u, v = int(a), int(b)
        except ValueError:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            what = "expected two vertex ids" if len(parts) != 2 else "vertex ids must be integers"
            raise ValueError(f"line {lineno}: {what}, got {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ValueError(
                f"line {lineno}: vertex ids must be non-negative, got {raw.strip()!r}"
            )
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        hi = u if u > v else v
        if hi >= len(adj):
            if hi > line_count:
                raise ValueError(
                    f"line {lineno}: vertex id {hi} is larger than the number of input "
                    f"lines ({line_count}), so the graph is disconnected: a connected "
                    f"graph on {hi + 1} vertices needs at least {hi} edges"
                )
            adj.extend([set() for _ in range(hi + 1 - len(adj))])
        nbrs = adj[u]
        if v in nbrs:
            raise ValueError(f"line {lineno}: duplicate edge {(min(u, v), hi)}")
        nbrs.add(v)
        adj[v].add(u)
    g = Graph.from_adjacency(adj)
    problem = g.validate()
    if problem is not None:
        raise ValueError(problem)
    return g


def reference_index(g: Graph, kind: IndexKind) -> float:
    """Index value summed edge by edge from per-vertex label queries."""
    if kind in (IndexKind.ABC4, IndexKind.GA5):
        lab = [g.neighbor_degree_sum(v) for v in range(g.vertex_count)]
    else:
        lab = [g.degree(v) for v in range(g.vertex_count)]
    return math.fsum(edge_term(kind, lab[u], lab[v]) for u, v in g.edges())
