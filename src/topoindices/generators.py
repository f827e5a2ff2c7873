"""Generators for the double-wheel and Hanoi graph families, plus edge-list I/O.

Vertex numbering is part of the contract so fixtures stay stable:

* ``double_wheel(n)``: hub = vertex 0, inner ring = ``1..n``, outer ring =
  ``n+1..2n``; ring vertices are consecutive around each cycle.
* ``hanoi(n)``: a vertex is a puzzle state of the n-disc, 3-peg puzzle.
  Writing one base-3 digit per disc, smallest disc first and most
  significant, the vertex id is the value of that numeral. The three
  all-on-one-peg states are therefore ``0``, ``(3**n - 1) // 2`` and
  ``3**n - 1``.

The Hanoi graph is built from its self-similar structure rather than by
enumerating moves: H_n is three copies of H_(n-1), one per peg of the
largest disc, joined by three bridge edges, the moves of the largest disc
(A. M. Hinz, S. Klavžar, U. Milutinović and C. Petr, *The Tower of Hanoi --
Myths and Maths*, Birkhäuser, 2013). Under the numbering above, vertex
``3*u + p`` is state ``u`` of the smaller discs with the largest disc on
peg ``p``.
"""

from __future__ import annotations

from .graph import Graph

# 3**13 is about 1.6M vertices and 2.4M edges. Building hanoi(13) and
# computing all six indices peaks near 0.7 GB resident; each further disc
# triples that.
HANOI_MAX_N = 13


def _require_int(n: object) -> None:
    # bool is an int subclass, but hanoi(True) is a typo, not a size
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an int, got {type(n).__name__} {n!r}")


def double_wheel(n: int) -> Graph:
    """Two disjoint n-cycles whose vertices all join a common hub.

    The result has ``2n + 1`` vertices and ``4n`` edges; the hub has degree
    ``2n`` and every ring vertex has degree 3.
    """
    _require_int(n)
    if n < 3:
        raise ValueError(f"double_wheel requires n >= 3, got {n} (a ring of size {n} is not a cycle)")
    edges: list[tuple[int, int]] = []
    for start in (1, n + 1):
        for i in range(n):
            edges.append((start + i, start + (i + 1) % n))
    edges.extend((0, v) for v in range(1, 2 * n + 1))
    return Graph(2 * n + 1, edges)


def hanoi(n: int) -> Graph:
    """State graph of the n-disc, 3-peg puzzle.

    Vertices are the ``3**n`` disc placements; two states are adjacent iff
    one legal move transforms one into the other. The result has
    ``3 * (3**n - 1) // 2`` edges, exactly three degree-2 vertices (the
    all-on-one-peg states), and degree 3 everywhere else.

    Built level by level from H_0, the single state with no discs. Level k
    copies H_(k-1) once per peg ``p`` of the new largest disc: each edge
    ``{u, w}`` becomes ``{3u+p, 3w+p}``. The largest disc can move between
    pegs ``p`` and ``q`` only when every smaller disc sits on the third peg
    ``r``, in state ``c = r * (3**(k-1) - 1) // 2``; those three moves are
    the bridge edges ``{3c+p, 3c+q}`` (Hinz et al., 2013).
    """
    _require_int(n)
    if n < 1:
        raise ValueError(f"hanoi requires n >= 1, got {n}")
    if n > HANOI_MAX_N:
        raise ValueError(f"hanoi size cap is n <= {HANOI_MAX_N}, got {n}")
    adj: list[list[int]] = [[]]
    for k in range(1, n + 1):
        adj = [[3 * w + p for w in nbrs] for nbrs in adj for p in (0, 1, 2)]
        all_on_one = (3 ** (k - 1) - 1) // 2
        for r, p, q in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            c = 3 * r * all_on_one
            adj[c + p].append(c + q)
            adj[c + q].append(c + p)
    return Graph.from_adjacency(adj)


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text into a validated, connected :class:`Graph`.

    Format: one edge per line as two whitespace-separated 0-based vertex
    ids; lines starting with ``#`` and blank lines are ignored; the vertex
    count is the largest id plus one. Self-loops, duplicate edges (in
    either orientation) and disconnected graphs are rejected.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: vertex ids must be integers, got {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative, got {line!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
        if key[1] > max_id:
            max_id = key[1]
    g = Graph(max_id + 1, edges)
    problem = g.validate()
    if problem is not None:
        raise ValueError(problem)
    return g


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text; inverse of :func:`from_edge_list`."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())
