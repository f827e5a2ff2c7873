"""Command-line interface: generate, compute, partition, verify, errata.

Exit codes are a stable scripting contract:

* 0: success (for ``verify``: every check passed)
* 1: verification failure
* 2: usage or domain error
* 3: I/O error
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

from .closed_forms import FAMILIES, Variant, closed_form, get_family
from .graph import Graph
from .indices import IndexKind, compute_index
from .partition import (
    DEGREE,
    NEIGHBOR_SUM,
    EdgePartition,
    _lookup,
    degree_partition,
    neighbor_sum_partition,
)
from .verify import (
    DEFAULT_TOLERANCE,
    check_tolerance,
    combine_reports,
    errata_report,
    verify_entry,
    verify_family,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


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


def _write_output(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a string or its pieces in order, to ``out`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(pieces)


def _load_source(args: argparse.Namespace) -> tuple[Graph | None, str | None, int | None]:
    """Resolve --family/--n vs --edges into (graph, family, n).

    For closed-form-only use the graph is not built, so the generator size
    cap does not apply there; callers that need the graph build it lazily
    via the returned family and n.
    """
    if args.edges is not None:
        if args.family is not None or args.n is not None:
            raise ValueError("--edges cannot be combined with --family/--n")
        # only the commands that read or write an edge list compile its module
        from .edgelist import from_edge_list

        with open(args.edges, encoding="utf-8") as file:
            if not file.seekable():
                # a pipe cannot be read again to name a fault: hold its text
                return from_edge_list(file.read()), None, None
            try:
                return from_edge_list(file), None, None
            except UnicodeDecodeError:
                # name the bad byte by its offset in the file, not in a block
                file.seek(0)
                file.read()
                raise
    if args.family is None or args.n is None:
        raise ValueError("either --edges or both --family and --n are required")
    return None, args.family, args.n


# ---------------------------------------------------------------- generate


def cmd_generate(args: argparse.Namespace) -> int:
    from .edgelist import _edge_list_pieces

    g = get_family(args.family).build(args.n)
    _write_output(_edge_list_pieces(g), args.out)
    return EXIT_OK


# ----------------------------------------------------------------- compute


def _compute_records(args: argparse.Namespace) -> list[dict]:
    # the flags are checked before any edge list is read
    kinds = list(IndexKind) if args.index == "all" else [IndexKind.parse(args.index)]
    variant = Variant.parse(args.variant)
    if args.method in ("closed", "both") and args.edges is not None:
        raise ValueError("closed forms exist only for generated families, not --edges input")
    if args.method == "both":
        check_tolerance(args.tol)

    graph, family, n = _load_source(args)
    if graph is None and args.method in ("brute", "both"):
        graph = get_family(family).build(n)

    if args.method == "both":
        return [verify_entry(family, kind, n, graph, args.tol, variant).to_dict() for kind in kinds]
    records = []
    for kind in kinds:
        rec: dict = {"family": family, "kind": kind.value, "n": n}
        if args.method == "brute":
            rec["method"] = "brute"
            rec["value"] = compute_index(graph, kind)
        else:
            result = closed_form(family, kind, n, variant)
            rec["method"] = "closed"
            rec["variant"] = variant.value
            rec["value"] = result.value
            rec["exactness_warning"] = result.exactness_warning
        records.append(rec)
    return records


def _render_compute_text(records: list[dict], method: str) -> str:
    lines = []
    for rec in records:
        if method == "both":
            lines.append(
                f"{rec['kind']}: oracle={_fmt(rec['oracle_value'])} "
                f"closed={_fmt(rec['closed_value'])} "
                f"rel_error={_fmt(rec['rel_error'])} pass={str(rec['pass']).lower()}"
            )
        else:
            suffix = ""
            if rec.get("exactness_warning"):
                suffix = "  (exactness warning: 3**(n+1) exceeds exact float range)"
            lines.append(f"{rec['kind']} = {_fmt(rec['value'])}{suffix}")
    return "\n".join(lines) + "\n"


def cmd_compute(args: argparse.Namespace) -> int:
    records = _compute_records(args)
    if args.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(CHECK_COLUMNS if args.method == "both" else VALUE_COLUMNS, records)
    else:
        text = _render_compute_text(records, args.method)
    _write_output(text, args.out)
    return EXIT_OK


# --------------------------------------------------------------- partition


def _resolve_partition(args: argparse.Namespace) -> EdgePartition:
    classify = _lookup(
        "mode", args.mode, {DEGREE: degree_partition, NEIGHBOR_SUM: neighbor_sum_partition}
    )
    graph, family, n = _load_source(args)
    return classify(graph if graph is not None else get_family(family).build(n))


def cmd_partition(args: argparse.Namespace) -> int:
    part = _resolve_partition(args)
    items = part.sorted_items()
    classes = [{"lo": lo, "hi": hi, "count": count} for (lo, hi), count in items]
    if args.format == "json":
        text = json.dumps({"mode": part.mode, "classes": classes}, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(("lo", "hi", "count"), classes)
    else:
        rows = [f"{lo}\t{hi}\t{count}" for (lo, hi), count in items]
        text = "\n".join(["lo\thi\tcount", *rows]) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify


def _verify_report(args: argparse.Namespace):
    kinds = None if args.index == "all" else (IndexKind.parse(args.index),)
    variant = Variant.parse(args.variant)
    if (args.n_min is None) != (args.n_max is None):
        raise ValueError("--n-min and --n-max must be given together")
    n_range = None if args.n_min is None else (args.n_min, args.n_max)

    families = tuple(FAMILIES) if args.family == "all" else (args.family,)

    return combine_reports(
        [
            verify_family(
                family,
                kinds=kinds,
                n_range=n_range,
                tolerance=args.tol,
                variant=variant,
            )
            for family in families
        ]
    )


def cmd_verify(args: argparse.Namespace) -> int:
    report = _verify_report(args)
    if args.format == "csv":
        text = _render_csv(CHECK_COLUMNS, [e.to_dict() for e in report.entries])
    else:
        text = report.to_json() + "\n"
    _write_output(text, args.out)
    for erratum in report.errata:
        print(f"erratum: {erratum.location}: {erratum.description}", file=sys.stderr)
    return EXIT_OK if report.summary.failed == 0 else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ errata


def cmd_errata(args: argparse.Namespace) -> int:
    errata = errata_report(args.n)
    if args.format == "json":
        text = json.dumps([e.to_dict() for e in errata], indent=2) + "\n"
    else:
        blocks = []
        for e in errata:
            lines = [f"location: {e.location}", f"  {e.description}"]
            for key, value in e.evidence.items():
                rendered = _fmt(value) if isinstance(value, float) else str(value)
                lines.append(f"  {key} = {rendered}")
            blocks.append("\n".join(lines))
        text = "\n\n".join(blocks) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_source_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=tuple(FAMILIES), help="graph family")
    sub.add_argument("--n", type=int, help="family size parameter")
    sub.add_argument("--edges", metavar="PATH", help="edge-list file instead of a family")


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

    p = sub.add_parser("generate", help="write a family graph as an edge list")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compute", help="compute index values for a graph")
    _add_source_options(p)
    p.add_argument("--index", default="all", help="index name or 'all'")
    p.add_argument("--method", default="brute", choices=("brute", "closed", "both"))
    p.add_argument("--variant", default="proof-derived", help="closed-form variant (abc4 only)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE, help="pass tolerance for --method both")
    p.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("partition", help="tabulate an edge partition")
    _add_source_options(p)
    p.add_argument("--mode", default="degree", help="degree or neighbor-sum")
    p.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="check closed forms against brute force")
    p.add_argument("--family", default="all", choices=(*FAMILIES, "all"))
    p.add_argument("--index", default="all", help="index name or 'all'")
    p.add_argument("--n-min", type=int, help="range start (default: per-kind range)")
    p.add_argument("--n-max", type=int, help="range end (inclusive)")
    p.add_argument("--variant", default="proof-derived", help="closed-form variant (abc4 only)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", metavar="PATH", help="report path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("errata", help="report the discrepancies the checks expose")
    p.add_argument("--n", type=int, default=3, help="probe size for the numeric evidence")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.set_defaults(func=cmd_errata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
