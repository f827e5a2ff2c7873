"""Command-line interface: generate, compute, partition, verify, errata.

Each ``cmd_*`` function returns what its command produced: the output (a
string, or for ``generate`` its pieces in order), the lines for stderr
(only ``verify`` has any: its errata summary) and the exit code.
:func:`main` writes the output to ``--out`` or stdout, then the stderr
lines, and returns the code.

Exit codes are a stable scripting contract:

* 0: success (for ``verify``: every check passed)
* 1: verification failure
* 2: usage or domain error
* 3: I/O error
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext

from .closed_forms import FAMILIES, Variant, closed_form, get_family
from .graph import Graph
from .indices import IndexKind, compute_index
from .partition import (
    DEGREE,
    NEIGHBOR_SUM,
    _lookup,
    degree_partition,
    neighbor_sum_partition,
)
from .verify import combine_reports, errata_report, verify_entry, verify_family

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# What a command returns: its output, its stderr lines and its exit code.
Result = tuple[str | Iterable[str], list[str], int]


def _fmt(x: float) -> str:
    """Render a number with 12 significant digits for text/CSV output."""
    return format(x, ".12g")


# Columns of a closed-form check (compute --method both, verify), keys of
# VerificationEntry.to_dict, and of a single value (compute --method brute|closed).
CHECK_COLUMNS = (
    "family", "kind", "n", "variant", "oracle_value", "closed_value", "rel_error", "pass"
)
VALUE_COLUMNS = ("family", "kind", "n", "method", "value")
# CSV headers that shorten their column's key.
_HEADERS = {"oracle_value": "oracle", "closed_value": "closed"}


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render_csv(columns: tuple[str, ...], records: list[dict]) -> str:
    header = ",".join(_HEADERS.get(column, column) for column in columns)
    rows = [",".join(_csv_cell(rec[column]) for column in columns) for rec in records]
    return "\n".join([header, *rows]) + "\n"


def _kinds(name: str) -> tuple[IndexKind, ...]:
    """The kinds ``--index`` names: one, or every kind for ``all``."""
    # in the spellings _lookup forgives; no hyphen can be part of "all"
    return tuple(IndexKind) if name.strip().lower() == "all" else (IndexKind.parse(name),)


def _check_source(args: argparse.Namespace) -> None:
    """Check that the flags name one graph: --edges, or both --family and --n."""
    if args.edges is not None:
        if args.family is not None or args.n is not None:
            raise ValueError("--edges cannot be combined with --family/--n")
    elif args.family is None or args.n is None:
        raise ValueError("either --edges or both --family and --n are required")


def _graph(args: argparse.Namespace) -> Graph:
    """The graph the source flags name: read from --edges, or the family built."""
    _check_source(args)
    if args.edges is None:
        return get_family(args.family).build(args.n)
    # only the commands that read or write an edge list compile its module
    from .edgelist import from_edge_list

    with open(args.edges, encoding="utf-8") as file:
        return from_edge_list(file)


# ---------------------------------------------------------------- generate


def cmd_generate(args: argparse.Namespace) -> Result:
    from .edgelist import _edge_list_pieces

    return _edge_list_pieces(get_family(args.family).build(args.n)), [], EXIT_OK


# ----------------------------------------------------------------- compute


def _compute_line(rec: dict) -> str:
    """One record as a text line: a closed-form check, or a single value."""
    if "oracle_value" in rec:
        return (
            f"{rec['kind']}: oracle={_fmt(rec['oracle_value'])} "
            f"closed={_fmt(rec['closed_value'])} "
            f"rel_error={_fmt(rec['rel_error'])} pass={str(rec['pass']).lower()}\n"
        )
    suffix = ""
    if rec.get("exactness_warning"):
        suffix = "  (exactness warning: 3**(n+1) exceeds exact float range)"
    return f"{rec['kind']} = {_fmt(rec['value'])}{suffix}\n"


def cmd_compute(args: argparse.Namespace) -> Result:
    # the flags are checked before any edge list is read
    kinds = _kinds(args.index)
    variant = Variant.parse(args.variant)
    if args.method in ("closed", "both") and args.edges is not None:
        raise ValueError("closed forms exist only for generated families, not --edges input")

    family, n = args.family, args.n
    if args.method == "closed":
        _check_source(args)
    else:
        graph = _graph(args)
    if args.method == "both":
        records = [verify_entry(family, kind, n, graph, variant).to_dict() for kind in kinds]
    else:
        records = []
        for kind in kinds:
            rec: dict = {"family": family, "kind": kind.value, "n": n, "method": args.method}
            if args.method == "brute":
                rec["value"] = compute_index(graph, kind)
            else:
                result = closed_form(family, kind, n, variant)
                rec["variant"] = variant.value
                rec["value"] = result.value
                rec["exactness_warning"] = result.exactness_warning
            records.append(rec)

    if args.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(CHECK_COLUMNS if args.method == "both" else VALUE_COLUMNS, records)
    else:
        text = "".join(map(_compute_line, records))
    return text, [], EXIT_OK


# --------------------------------------------------------------- partition


def cmd_partition(args: argparse.Namespace) -> Result:
    classify = _lookup(
        "mode", args.mode, {DEGREE: degree_partition, NEIGHBOR_SUM: neighbor_sum_partition}
    )
    part = classify(_graph(args))
    items = part.sorted_items()
    classes = [{"lo": lo, "hi": hi, "count": count} for (lo, hi), count in items]
    if args.format == "json":
        text = json.dumps({"mode": part.mode, "classes": classes}, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(("lo", "hi", "count"), classes)
    else:
        rows = [f"{lo}\t{hi}\t{count}" for (lo, hi), count in items]
        text = "\n".join(["lo\thi\tcount", *rows]) + "\n"
    return text, [], EXIT_OK


# ------------------------------------------------------------------ verify


def cmd_verify(args: argparse.Namespace) -> Result:
    kinds = _kinds(args.index)
    variant = Variant.parse(args.variant)
    if (args.n_min is None) != (args.n_max is None):
        raise ValueError("--n-min and --n-max must be given together")
    n_range = None if args.n_min is None else (args.n_min, args.n_max)

    families = tuple(FAMILIES) if args.family == "all" else (args.family,)
    report = combine_reports(
        [
            verify_family(family, kinds=kinds, n_range=n_range, variant=variant)
            for family in families
        ]
    )
    if args.format == "csv":
        text = _render_csv(CHECK_COLUMNS, [e.to_dict() for e in report.entries])
    else:
        text = report.to_json() + "\n"
    errata = [f"erratum: {e.location}: {e.description}" for e in report.errata]
    return text, errata, EXIT_OK if report.summary.failed == 0 else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ errata


def cmd_errata(args: argparse.Namespace) -> Result:
    errata = errata_report()
    if args.format == "json":
        return json.dumps([e.to_dict() for e in errata], indent=2) + "\n", [], EXIT_OK
    blocks = []
    for e in errata:
        lines = [f"location: {e.location}", f"  {e.description}"]
        for key, value in e.evidence.items():
            rendered = _fmt(value) if isinstance(value, float) else str(value)
            lines.append(f"  {key} = {rendered}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n", [], EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoindices",
        description=(
            "Degree-based topological indices of double-wheel and Hanoi "
            "graphs: generate the families, compute indices by edge "
            "summation, tabulate edge partitions, and verify the closed "
            "forms against brute force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, func, formats=(), out="output"):
        # every command's last options, and the function that runs it
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        p.add_argument("--out", metavar="PATH", help=f"{out} path (default: stdout)")
        p.set_defaults(func=func)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--family", choices=tuple(FAMILIES), help="graph family")
    source.add_argument("--n", type=int, help="family size parameter")
    source.add_argument("--edges", metavar="PATH", help="edge-list file instead of a family")

    p = sub.add_parser("generate", help="write a family graph as an edge list")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", required=True, type=int)
    finish(p, cmd_generate)

    p = sub.add_parser("compute", help="compute index values for a graph", parents=[source])
    p.add_argument("--index", default="all", help="index name or 'all'")
    p.add_argument("--method", default="brute", choices=("brute", "closed", "both"))
    p.add_argument("--variant", default="proof-derived", help="closed-form variant (abc4 only)")
    finish(p, cmd_compute, ("text", "csv", "json"))

    p = sub.add_parser("partition", help="tabulate an edge partition", parents=[source])
    p.add_argument("--mode", default="degree", help="degree or neighbor-sum")
    finish(p, cmd_partition, ("text", "csv", "json"))

    p = sub.add_parser("verify", help="check closed forms against brute force")
    p.add_argument("--family", default="all", choices=(*FAMILIES, "all"))
    p.add_argument("--index", default="all", help="index name or 'all'")
    p.add_argument("--n-min", type=int, help="range start (default: per-kind range)")
    p.add_argument("--n-max", type=int, help="range end (inclusive)")
    p.add_argument("--variant", default="proof-derived", help="closed-form variant (abc4 only)")
    finish(p, cmd_verify, ("json", "csv"), out="report")

    p = sub.add_parser("errata", help="report the discrepancies the checks expose")
    finish(p, cmd_errata, ("text", "json"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output, stderr_lines, code = args.func(args)
        sink = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
        with sink as file:
            file.writelines([output] if isinstance(output, str) else output)
            # on a stream shared with stderr, the output comes before its errata
            file.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout's reader is gone: the interpreter's last flush of what
            # stdout still holds goes to the null device, not to the pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in stderr_lines:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
