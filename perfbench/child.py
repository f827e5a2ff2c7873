"""One op of a workload, run in a fresh interpreter started by run.py.

    python perfbench/child.py pass  OUT N [--trace]   # the hanoi-cap pass at hanoi(N)
    python perfbench/child.py cli   OUT -- ARGV...    # topoindices CLI, traced in-process
    python perfbench/child.py alloc OUT WORKLOAD      # generator allocations, tracemalloc

Each mode writes one JSON object to OUT. The program's outputs go there
raw; run.py checks them, so no check here can hide a wrong value.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import Tracer, install, rebind


def hanoi_pass(n: int) -> dict:
    """Build hanoi(n), all six kinds by brute force, both partitions, and
    all six kinds again from the partitions."""
    from topoindices import generators, indices, partition
    from topoindices.indices import IndexKind

    g = generators.hanoi(n)
    brute = {k.value: indices.compute_index(g, k) for k in IndexKind}
    parts = {
        partition.DEGREE: partition.degree_partition(g),
        partition.NEIGHBOR_SUM: partition.neighbor_sum_partition(g),
    }
    from_partition = {
        k.value: indices.compute_from_partition(parts[k.labeling], k) for k in IndexKind
    }
    return {
        "vertices": g.vertex_count,
        "edges": g.edge_count(),
        "brute": brute,
        "from_partition": from_partition,
        "classes": {
            mode: [[lo, hi, count] for (lo, hi), count in p.sorted_items()]
            for mode, p in parts.items()
        },
        "totals": {mode: p.total() for mode, p in parts.items()},
    }


def run_pass(n: int, traced: bool) -> dict:
    tracer = Tracer()
    if traced:
        install(tracer)
    start = time.perf_counter()
    result = hanoi_pass(n)
    result["main_s"] = time.perf_counter() - start
    result["trace"] = tracer.to_dict()
    return result


def run_cli(argv: list[str]) -> dict:
    import topoindices.cli

    tracer = Tracer()
    install(tracer)
    main = tracer.span("cli.main", topoindices.cli.main, lambda args, code: {"command": args[0][0]})
    code = main(argv)
    return {"exit": code, "trace": tracer.to_dict()}


def run_alloc(workload: str, tmp: Path) -> dict:
    """Peak and retained traced bytes of each generator call made by the
    workload's allocation run, which writes its files to ``tmp``."""
    import topoindices.cli
    from topoindices import generators

    from run import DW_N, HANOI_N

    records = []

    def measured(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            graph = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            records.append(
                {
                    "call": name,
                    "vertices": graph.vertex_count,
                    "peak_bytes": peak - before,
                    "retained_bytes": current - before,
                }
            )
            return graph

        return wrapper

    for name in ("hanoi", "double_wheel", "from_edge_list"):
        rebind(generators, name, measured(name, getattr(generators, name)))

    tracemalloc.start()
    try:
        if workload == "hanoi-cap":
            generators.hanoi(HANOI_N)
        elif workload == "verify-cli":
            topoindices.cli.main(["verify", "--out", str(tmp / "alloc-report.json")])
        elif workload == "edgelist-dw":
            path = tmp / "alloc-dw.txt"
            topoindices.cli.main(["generate", "--family", "dw", "--n", str(DW_N), "--out", str(path)])
            generators.from_edge_list(path.read_text(encoding="utf-8"))
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    finally:
        tracemalloc.stop()
    return {"calls": records}


def main(argv: list[str]) -> int:
    mode, out = argv[0], Path(argv[1])
    if mode == "pass":
        result = run_pass(int(argv[2]), "--trace" in argv[3:])
    elif mode == "cli":
        result = run_cli(argv[argv.index("--") + 1 :])
    elif mode == "alloc":
        result = run_alloc(argv[2], out.parent)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result), encoding="utf-8")
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
