"""Edge-list text: the reader, :func:`from_edge_list`, and the writer,
:func:`to_edge_list`.

The format is one edge per line as two whitespace-separated 0-based vertex
ids; lines starting with ``#`` and blank lines are ignored, and lines break
as in ``str.splitlines``. The reader takes a ``str`` or an open text file,
reads it a block at a time, a file once and again only to name a fault (a
pipe, which cannot be read again, whole first), checks every line and
builds a validated, connected :class:`~topoindices.graph.Graph`; the writer
lists the edges of a graph, ``u < v`` and sorted, in pieces of bounded
size.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections.abc import Container, Iterable, Iterator
from functools import partial
from itertools import chain
from typing import TextIO

from .graph import Graph, _as_run, _connectivity_problem, _csr, _walk


# Characters of edge-list text read at a time, so that neither the text nor
# a list of every line is held: about 3000 lines, a few hundred kB of str or
# int objects, which keeps the read below the peak of the CSR fill.
_READ_CHUNK = 1 << 15

# The characters that end a line in `str.splitlines`, where "\r\n" ends one
# line too.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# Tables for `str.translate`: one deletes the ASCII digits, which leaves
# " \n" a line of a plain chunk; one turns its spaces and line breaks into
# the commas of a JSON array.
_NO_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def _line_chunks(source: str | TextIO) -> Iterator[str]:
    """The text of ``source`` in consecutive chunks of whole lines.

    ``source`` is read ``_READ_CHUNK`` characters at a time, a ``str`` by
    slicing and a text file by ``read`` from its start. Each block is cut
    after its last ``"\\n"``, or in a block without one after its last line
    break of another kind, and the rest carries into the next chunk; a
    block with no line break carries whole. A ``"\\r"`` that ends a block is
    held back, so that ``"\\r\\n"`` stays whole, and the chunks'
    ``splitlines()`` join to the lines of the whole text's ``splitlines()``.
    """
    size = _READ_CHUNK
    if isinstance(source, str):
        blocks = (source[start : start + size] for start in range(0, len(source), size))
    else:
        source.seek(0)
        blocks = iter(partial(source.read, size), "")
    rest = ""
    for block in blocks:
        end = len(block) - block.endswith("\r")
        cut = block.rfind("\n", 0, end) + 1
        if not cut:
            cut = max(block.rfind(c, 0, end) for c in _LINE_BREAKS) + 1
        if cut:
            chunk = rest + block[:cut]
            rest = block[cut:]
            # only the chunk and its carry are held while the chunk is read
            del block
            yield chunk
        else:
            rest += block
    if rest:
        yield rest


def _read_plain(chunk: str, ends: array) -> int | None:
    """Append the ids of a plain ``chunk`` to ``ends`` in one JSON decode,
    and return its number of lines; ``None``, with ``ends`` as it was, if
    ``chunk`` is not plain.

    A chunk is plain when every line of it is two ASCII decimal ids with no
    leading zero, one space apart, ending in ``"\\n"``. Its lines then read
    as one JSON array once each space and line break is a comma, and JSON's
    integers are the ints ``int()`` reads from them. A chunk is not plain
    unless it ends in ``"\\n"``, which a last line without one fails, and,
    its ASCII digits deleted, is ``" \\n"`` once per line, which any other
    character, a blank line or a line of one field or three fails. Nor is
    it when the decode fails, as an empty field (a line that starts or ends
    with its space), a leading zero or an id over ``int``'s digit limit
    makes it, or when an id overflows ``ends``.
    """
    lines = chunk.count("\n")
    if not chunk.endswith("\n") or chunk.translate(_NO_DIGITS) != " \n" * lines:
        return None
    try:
        ids = json.loads("[" + chunk[:-1].translate(_COMMAS) + "]")
    except ValueError:
        return None
    size = len(ends)
    try:
        ends.extend(ids)
    except OverflowError:
        del ends[size:]
        return None
    return lines


def _read_lines(chunk: str, ends: array) -> int | None:
    """Append the two ids of each edge of ``chunk`` to ``ends``, line by line,
    and return its number of lines; ``None`` at the first line that is not
    an edge, a comment or blank."""
    lines = chunk.splitlines()
    for raw in lines:
        try:
            a, b = raw.split()
            ends.append(int(a))
            ends.append(int(b))
        except (ValueError, OverflowError):
            # the rare lines: blank, comment or faulty
            parts = raw.split()
            if parts and not parts[0].startswith("#"):
                return None
    return len(lines)


def from_edge_list(source: str | TextIO) -> Graph:
    """Parse edge-list text, a ``str`` or an open text file, into a
    validated, connected :class:`Graph`.

    Format: one edge per line as two whitespace-separated 0-based vertex
    ids; lines starting with ``#`` and blank lines are ignored; the vertex
    count is the largest id plus one. Lines break as in ``str.splitlines``.

    One pass reads the text a chunk at a time (:func:`_line_chunks`), a file
    from its start, so that neither the whole text nor a list of all its
    lines is held, and appends each edge's two ids to one ``array`` of
    unsigned 4-byte ids; nothing is allocated per vertex while lines are
    read. A plain chunk, every line two ids and one space, is read in one
    JSON decode (:func:`_read_plain`), any other chunk line by line
    (:func:`_read_lines`). Then no id may be larger than the number of input
    lines, for a connected graph on ``V`` vertices needs at least ``V - 1``
    edges. Only then are the CSR columns built, and walked once,
    :func:`~topoindices.graph._walk`: the walk names the rows that list an
    id twice, which a self-loop or a duplicate edge (in either orientation)
    leaves, and counts the vertices connected to vertex 0.

    Any fault, a line that is not two non-negative ids below ``2**32`` or
    one that the largest-id check or the walk finds, sends the text to one
    more read, :func:`_first_fault`, once the columns built so far are
    freed; only then is a file read again, from its start. The
    ``ValueError`` raised names the first faulty line, whatever its fault.
    Last, the graph must be non-empty and connected, as
    :meth:`Graph.validate` checks.

    A file that cannot seek, such as a pipe, cannot be read again, so its
    text is read whole first and parsed as a ``str``. A file whose block
    reads meet a byte that is not UTF-8 is read whole once more, from its
    start, and that read's ``UnicodeDecodeError`` is raised: it names the
    byte by its offset in the file, not in its block.
    """
    if not isinstance(source, str) and not source.seekable():
        # a pipe cannot be read again to name a fault: its text is held
        source = source.read()
    try:
        columns, line_count = _read_edges(_line_chunks(source))
    except UnicodeDecodeError:
        # read whole, the text names the bad byte by its offset in the
        # file, not in its block
        source.seek(0)
        source.read()
        raise
    if columns is None:
        raise ValueError(_first_fault(_line_chunks(source), line_count))
    reached, repeats = _walk(*columns)
    if repeats:
        del columns
        raise ValueError(_first_fault(_line_chunks(source), line_count, repeats))
    g = Graph._from_csr(*columns)
    problem = _connectivity_problem(g.vertex_count, reached)
    if problem is not None:
        raise ValueError(problem)
    return g


def _read_edges(chunks: Iterator[str]) -> tuple[tuple[array, array] | None, int]:
    """The CSR columns of the edges of ``chunks`` and their number of lines.

    The columns are ``None`` at the first faulty line, after which the
    chunks are only counted, or at an id larger than the number of lines.
    """
    # unsigned, so that a negative id overflows its item as one of 2**32 does
    ends = array("I")
    line_count = 0
    for chunk in chunks:
        lines = _read_plain(chunk, ends)
        if lines is None:
            lines = _read_lines(chunk, ends)
            if lines is None:
                del ends
                lines = sum(len(rest.splitlines()) for rest in chain([chunk], chunks))
                return None, line_count + lines
        line_count += lines
    top = max(ends, default=-1)
    if top > line_count:
        return None, line_count
    return _csr(top + 1, ends), line_count


def _first_fault(
    chunks: Iterable[str], line_count: int, flagged: Container[int] | None = None
) -> str:
    """The error message for the first faulty line of the text of ``chunks``.

    The lines are read again in order, one set of the edges seen held, each
    edge ``(lo, hi)`` as the int ``lo * (line_count + 1) + hi``, and each
    line's checks are made in this order: two fields, integer ids,
    non-negative ids, no self-loop, no id larger than the number of lines,
    not an edge seen on an earlier line. The text must hold a faulty line,
    and ``line_count`` is its number of lines.

    ``flagged``, when given, holds the rows that list an id twice, from a
    first read that found no other fault. A duplicate edge lists each of
    its ends twice in the other's row, so only the edges with both ends
    flagged are held and looked up; a self-loop is found by its line.
    """
    seen: set[int] = set()
    lines = chain.from_iterable(map(str.splitlines, chunks))
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            u, v = map(int, parts)
        except ValueError:
            what = "expected two vertex ids" if len(parts) != 2 else "vertex ids must be integers"
            return f"line {lineno}: {what}, got {raw.strip()!r}"
        if u < 0 or v < 0:
            return f"line {lineno}: vertex ids must be non-negative, got {raw.strip()!r}"
        if u == v:
            return f"line {lineno}: self-loop at vertex {u}"
        lo, hi = (u, v) if u < v else (v, u)
        if hi > line_count:
            return (
                f"line {lineno}: vertex id {hi} is larger than the number of input lines "
                f"({line_count}), so the graph is disconnected: a connected graph on "
                f"{hi + 1} vertices needs at least {hi} edges"
            )
        if flagged is not None and not (lo in flagged and hi in flagged):
            continue
        edge = lo * (line_count + 1) + hi
        if edge in seen:
            return f"line {lineno}: duplicate edge {(lo, hi)}"
        seen.add(edge)
    raise AssertionError("edge-list text without a faulty line")


# Slots whose lines are formatted and joined at a time, so that no
# whole-graph list of pairs or lines is held, however long a row.
_WRITE_BATCH = 4096


def _edge_list_pieces(g: Graph) -> Iterator[str]:
    """The text of :func:`to_edge_list` in pieces of at most
    ``_WRITE_BATCH`` lines.

    A piece is the lines of the rows of consecutive vertices that hold at
    most ``_WRITE_BATCH`` slots together, each row sorted, or a part of one
    longer row. Such a row is read in ascending order whole: as the
    ``range`` of its span when it lists every id of it but, at most, its
    own (:func:`~topoindices.graph._as_run`), so that no list of its ids is
    held, otherwise sorted; either way only the ids above its own are
    written.
    """
    offsets, targets = g._offsets, g._targets
    u = 0
    while u < g.vertex_count:
        # the rows from u's on that end within a batch of its first slot
        end = bisect_right(offsets, offsets[u] + _WRITE_BATCH, u + 1) - 1
        if end > u:
            yield "".join(
                [
                    f"{w} {v}\n"
                    for w in range(u, end)
                    for v in sorted(targets[offsets[w] : offsets[w + 1]])
                    if w < v
                ]
            )
        else:
            end = u + 1
            row = targets[offsets[u] : offsets[end]]
            # a span's range holds u itself when the row skips it, and the
            # lines keep only the ids above u
            row = _as_run(row, u) or sorted(row)
            for i in range(0, len(row), _WRITE_BATCH):
                yield "".join([f"{u} {v}\n" for v in row[i : i + _WRITE_BATCH] if u < v])
        u = end


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text; inverse of :func:`from_edge_list`.

    One ``u v`` line per edge with ``u < v``, sorted, as :meth:`Graph.edges`
    lists them: the pieces of :func:`_edge_list_pieces`, joined.
    """
    return "".join(_edge_list_pieces(g))
