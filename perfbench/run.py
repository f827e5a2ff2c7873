"""Benchmark of the topoindices verifier, driven from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds ``src/topoindices``. One client runs one
op at a time in a closed loop: each op starts only after the previous one
finished, and every op is one or more fresh interpreter processes. Ops
keep starting until ``--seconds`` have passed; at least one op runs.

Workloads (see README.md for why each was chosen):

* ``hanoi-cap``: timed passes at hanoi(9), one untimed at hanoi(13). A
  pass builds the graph, computes six kinds by brute force, both
  partitions, and six kinds from the partitions, in one child process.
* ``verify-cli``: ``python -m topoindices verify --out FILE``.
* ``edgelist-dw``: ``generate`` a double wheel of N = 20000, shuffle the
  edge list (untimed, from ``--seed``), then ``compute`` and
  ``partition --mode neighbor-sum`` on it.

Every output is checked; an op that fails a check is counted in
``failed`` and never timed as a success. Times are reported at the
reference speed (see ``Runner.scaled``). With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` untraced and traced ops
alternate and the last line holds per-layer metrics from the traced ones,
plus a separate ``tracemalloc`` run for allocation figures. The full
per-layer table, every op and every span go to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
LAUNCH = HERE / "launch.py"
OUT_DIR = ROOT / ".perfbench"

# Each untraced hanoi-cap run makes one pass at the generator cap for its
# peak memory and its gates; its timed ops are passes at HANOI_N, short
# enough for several per run (see summarize). hanoi(13) under tracemalloc
# would take minutes, so allocations are measured at HANOI_N too.
HANOI_CAP_N = 13
HANOI_N = 9
DW_N = 20_000
VERIFY_CHECKS = 412
VERIFY_ERRATA = 3

# Relative tolerance of every value gate. It is not a setting: the
# double-wheel abc4 as printed is off by a factor of 20 or more from
# n = 1000 on, and nothing may make it pass.
TOL = 1e-9

SETUP_STARTS = 21

# The reference work that every timing is scaled by (see Runner.scaled):
# its size, how often it is repeated for one reading, and the seconds one
# repetition is taken to last at the reference speed.
REF_VERTICES = 15_000
REF_REPEATS = 3
REF_S = 0.03

# Each run must end within 180 s: children still running at RUN_LIMIT_S
# are killed and their op fails. MAX_SECONDS of ops plus the hanoi(13)
# pass (32 to 56 s) and the interpreter starts fit well inside it.
RUN_LIMIT_S = 170.0
MAX_SECONDS = 60.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
# Layer metrics that every workload moves; the rest of the table is in
# the result file.
PER_LAYER = {
    "generators.s": "s",
    "generators.alloc_peak_mb": "MB",
    "graph.edges_s": "s",
    "graph.edges_calls": "count",
    "graph.neighbor_sum_labels_s": "s",
    "graph.bytes_per_vertex": "B",
    "indices.compute_index_s": "s",
    "indices.compute_index_calls": "count",
    "indices.edge_terms": "count",
    "partition.neighbor_sum_s": "s",
    "partition.classes": "count",
    "cli.process_overhead_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ gates


def close(value: float, reference: float) -> bool:
    """``value`` within relative ``TOL`` of ``reference``."""
    return abs(value - reference) <= TOL * abs(reference)


def hanoi_classes(n: int) -> dict[str, dict[tuple[int, int], int]]:
    """Both partitions of hanoi(n), n >= 3, from the graph's structure: the
    three corners are the only degree-2 vertices, and away from the corners
    every neighbor-sum is 9."""
    edges = 3 * (3**n - 1) // 2
    return {
        "degree": {(2, 3): 6, (3, 3): edges - 6},
        "neighbor_sum": {(6, 8): 6, (8, 8): 3, (8, 9): 6, (9, 9): (3 ** (n + 1) - 33) // 2},
    }


def check_hanoi_pass(out: dict, n: int) -> list[str]:
    from topoindices import IndexKind, hanoi_closed_form

    failures = []
    edges = 3 * (3**n - 1) // 2
    if out["vertices"] != 3**n or out["edges"] != edges:
        failures.append(f"hanoi({n}) has {out['vertices']} vertices, {out['edges']} edges")
    for kind in IndexKind:
        brute = out["brute"][kind.value]
        closed = hanoi_closed_form(kind, n).value
        if not close(brute, closed):
            failures.append(f"{kind.value}: brute {brute!r} vs closed form {closed!r}")
        if not close(out["from_partition"][kind.value], brute):
            failures.append(f"{kind.value}: from partition {out['from_partition'][kind.value]!r}")
    for mode, expected in hanoi_classes(n).items():
        got = {(lo, hi): count for lo, hi, count in out["classes"][mode]}
        if got != expected:
            failures.append(f"{mode} partition {got} != {expected}")
        if out["totals"][mode] != edges:
            failures.append(f"{mode} partition totals {out['totals'][mode]}, not {edges}")
    return failures


def check_dw_values(values: dict[str, float], n: int, variant=None) -> list[str]:
    """The six double-wheel values against ``dw_closed_form``."""
    from topoindices import IndexKind, Variant, dw_closed_form

    variant = variant or Variant.PROOF_DERIVED
    failures = []
    if set(values) != {k.value for k in IndexKind}:
        return [f"kinds {sorted(values)}"]
    for kind in IndexKind:
        closed = dw_closed_form(kind, n, variant).value
        if not close(values[kind.value], closed):
            failures.append(f"{kind.value}: {values[kind.value]!r} vs closed form {closed!r}")
    return failures


def check_dw_partition(payload: dict, n: int) -> list[str]:
    """Neighbor-sum partition of double_wheel(n): ring vertices sum to
    2n + 6, the hub to 6n; 2n ring edges and 2n spokes."""
    got = {(c["lo"], c["hi"]): c["count"] for c in payload["classes"]}
    expected = {(2 * n + 6, 2 * n + 6): 2 * n, (2 * n + 6, 6 * n): 2 * n}
    failures = []
    if payload["mode"] != "neighbor_sum" or got != expected:
        failures.append(f"partition {payload['mode']} {got} != {expected}")
    if sum(got.values()) != 4 * n:
        failures.append(f"partition totals {sum(got.values())}, not {4 * n}")
    return failures


def check_verify_report(report: bytes) -> list[str]:
    data = json.loads(report)
    summary = data["summary"]
    failures = []
    if (summary["total"], summary["passed"], summary["failed"]) != (VERIFY_CHECKS, VERIFY_CHECKS, 0):
        failures.append(f"summary {summary}")
    if len(data["errata"]) != VERIFY_ERRATA:
        failures.append(f"{len(data['errata'])} errata")
    return failures


# -------------------------------------------------------------- processes


@dataclass
class Proc:
    wall_s: float
    scaled_s: float
    peak_rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes


@dataclass
class Op:
    index: int
    traced: bool
    timed: bool = True
    wall_s: float = 0.0
    scaled_s: float = 0.0
    peak_rss_mb: float = 0.0
    main_s: float = 0.0
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    def add(self, proc: Proc, label: str) -> bool:
        """Count one timed process into the op; False if it failed."""
        self.wall_s += proc.wall_s
        self.scaled_s += proc.scaled_s
        self.peak_rss_mb = max(self.peak_rss_mb, proc.peak_rss_mb)
        self.output_bytes += len(proc.stdout)
        if proc.exit != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{label}: exit {proc.exit} {tail}")
            return False
        return True


def kill_group(pgid: int) -> None:
    """SIGKILL every process of a group and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


class Runner:
    """Starts children from the checkout, each through launch.py, which
    reaps it with ``os.wait4``, whose rusage is that child's alone."""

    def __init__(self, seed: int, seconds: float, traced: bool, tmp: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.first: dict[str, object] = {}
        self.references: list[float] = []
        self._count = 0

    def scaled(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed. Every child
        process and every interpreter start is scaled on its own.

        A shared host's CPU speed can swing by 1.7 times for seconds to
        minutes at a time (a neighbour's load, not steal time: CPU time
        swings as much as wall time), so raw times of the same code spread
        by up to 40% between runs. Each timing is therefore divided by the
        mean of the reference readings just before and just after it, and
        multiplied by REF_S. The reference runs no topoindices code, so a
        change to the program moves the scaled time by the same share as
        the raw one.
        """
        if not self.references:
            self.references.append(reference())
        before = self.references[-1]
        self.references.append(reference())
        return seconds * REF_S / ((before + self.references[-1]) / 2)

    def spawn(self, argv: list[str]) -> Proc:
        """Run ``argv`` to its end. Its launcher leads a process group of
        its own, which is killed whole if the run's deadline passes."""
        self._count += 1
        out_path, err_path, report_path = (
            self.tmp / f"proc-{self._count}.{ext}" for ext in ("out", "err", "json")
        )
        limit = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            launcher = subprocess.Popen(
                [sys.executable, "-S", str(LAUNCH), str(report_path), *argv], cwd=ROOT,
                env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True,
            )
            killer = threading.Timer(limit, kill_group, (launcher.pid,))
            killer.start()
            try:
                launcher.wait()
            except BaseException:
                kill_group(launcher.pid)
                launcher.wait()
                raise
            finally:
                killer.cancel()
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        else:
            report = {"wall_s": limit, "maxrss_kib": 0, "exit": launcher.returncode}
        wall = report["wall_s"]
        proc = Proc(wall, self.scaled(wall), report["maxrss_kib"] * 1024 / 1e6, report["exit"],
                    out_path.read_bytes(), err_path.read_bytes())
        out_path.unlink()
        err_path.unlink()
        return proc

    def cli(self, op: Op, args: list[str]) -> Proc:
        """One topoindices CLI process: the user's command, or with
        ``op.traced`` the same command under the tracer."""
        if not op.traced:
            return self.spawn([sys.executable, "-m", "topoindices", *args])
        trace_path = self.tmp / f"trace-{op.index}-{len(op.traces)}.json"
        proc = self.spawn([sys.executable, str(CHILD), "cli", str(trace_path), "--", *args])
        if trace_path.exists():
            traced = json.loads(trace_path.read_text(encoding="utf-8"))["trace"]
            trace_path.unlink()
            op.traces.append(traced)
            op.main_s += sum(s[2] - s[1] for s in traced["spans"] if s[0] == "cli.main")
        return proc


def reference_work(n: int) -> float:
    """Fixed pure-Python work of the program's kind: dicts keyed by vertex
    tuples, adjacency lists, a float sum and a sort. Returns the sum."""
    labels = [(i % 3, i // 3 % 3, i // 9) for i in range(n)]
    adj = {u: [labels[(i * 7 + 1) % n], labels[(i + 1) % n]] for i, u in enumerate(labels)}
    degree = {u: len(vs) + i % 2 for i, (u, vs) in enumerate(adj.items())}
    edges = sorted((u, v) for u, vs in adj.items() for v in vs if u < v)
    return math.fsum(math.sqrt(degree[u] * degree[v]) for u, v in edges)


def reference() -> float:
    """Fastest of REF_REPEATS timings of the reference work. The collector
    is off while it runs, so that the client's own heap does not time it."""
    times = []
    gc.disable()
    try:
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            reference_work(REF_VERTICES)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def setup_probe(runner: Runner) -> float:
    """Seconds from starting an interpreter until ``import topoindices.cli``
    returns, on the shared CLOCK_MONOTONIC."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import topoindices.cli, time; print(repr(time.monotonic()))"],
        cwd=ROOT, env=runner.env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout) - start


# -------------------------------------------------------------- workloads


def op_hanoi_pass(runner: Runner, op: Op, n: int) -> None:
    out_path = runner.tmp / f"pass-{op.index}.json"
    argv = [sys.executable, str(CHILD), "pass", str(out_path), str(n)]
    proc = runner.spawn(argv + (["--trace"] if op.traced else []))
    if not op.add(proc, "hanoi pass"):
        return
    out = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    op.main_s = out["main_s"]
    if op.traced:
        op.traces.append(out["trace"])
    op.failures += check_hanoi_pass(out, n)


def op_verify_cli(runner: Runner, op: Op) -> None:
    report_path = runner.tmp / f"verify-{op.index}.json"
    proc = runner.cli(op, ["verify", "--out", str(report_path)])
    if not op.add(proc, "verify"):
        return
    report = report_path.read_bytes()
    report_path.unlink()
    op.output_bytes += len(report)
    op.failures += check_verify_report(report)
    if report != runner.first.setdefault("report", report):
        op.failures.append("report differs from the run's first report")


def shuffle_edge_list(src: Path, dst: Path, rng: random.Random) -> None:
    """Same edges, lines in another order, each edge in either orientation."""
    lines = src.read_text(encoding="utf-8").splitlines()
    rng.shuffle(lines)
    out = []
    for line in lines:
        u, v = line.split()
        out.append(f"{v} {u}\n" if rng.random() < 0.5 else f"{u} {v}\n")
    dst.write_text("".join(out), encoding="utf-8")


def op_edgelist_dw(runner: Runner, op: Op) -> None:
    generated = runner.tmp / f"dw-{op.index}.txt"
    shuffled = runner.tmp / f"dw-{op.index}-shuffled.txt"
    proc = runner.cli(op, ["generate", "--family", "dw", "--n", str(DW_N), "--out", str(generated)])
    if not op.add(proc, "generate"):
        return
    op.output_bytes += generated.stat().st_size
    shuffle_edge_list(generated, shuffled, random.Random(runner.seed * 1_000_003 + op.index))
    generated.unlink()

    source = ["--edges", str(shuffled), "--format", "json"]
    compute = runner.cli(op, ["compute", *source])
    partition = runner.cli(op, ["partition", *source, "--mode", "neighbor-sum"])
    shuffled.unlink()
    if op.add(compute, "compute"):
        values = {rec["kind"]: rec["value"] for rec in json.loads(compute.stdout)}
        op.failures += check_dw_values(values, DW_N)
        # math.fsum makes the values independent of edge order, so every
        # shuffle in the run must give the same bits.
        if values != runner.first.setdefault("values", values):
            op.failures.append(f"values differ between shuffles: {values}")
    if op.add(partition, "partition"):
        op.failures += check_dw_partition(json.loads(partition.stdout), DW_N)


# name -> (timed op, untimed op made once halfway through the timed ones).
# The allocation run of each workload is in child.py.
WORKLOADS = {
    "hanoi-cap": (
        functools.partial(op_hanoi_pass, n=HANOI_N),
        functools.partial(op_hanoi_pass, n=HANOI_CAP_N),
    ),
    "verify-cli": (op_verify_cli, None),
    "edgelist-dw": (op_edgelist_dw, None),
}


# ---------------------------------------------------------------- metrics


def summarize(ops: list[Op], setup: list[float]) -> dict[str, float]:
    """End-to-end metrics. Failed ops count as attempted and not passed;
    their times and memory are left out, so with no passing op ``run_s``
    and ``peak_rss_mb`` are missing. ``run_s`` and ``setup_s`` are medians
    of times at the reference speed."""
    passed = [op for op in ops if not op.traced and not op.failures]
    timed = [op for op in passed if op.timed]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ratio": sum(1 for op in ops if not op.failures) / len(ops),
    }
    if timed:
        metrics["run_s"] = statistics.median(op.scaled_s for op in timed)
    if passed:
        metrics["peak_rss_mb"] = max(op.peak_rss_mb for op in passed)
    return metrics


def wall_stats(walls: list[float]) -> dict[str, float]:
    """Count, fastest, median and slowest of op wall times."""
    if not walls:
        return {"count": 0}
    return {"count": len(walls), "min": min(walls), "median": statistics.median(walls), "max": max(walls)}


def layer_table(ops: list[Op], alloc: dict) -> dict[str, float]:
    """Median over passing traced ops of each op's layer metrics, plus
    allocations; empty if no traced or no untraced timed op passed."""
    passed = [op for op in ops if op.timed and not op.failures]
    traced = [op for op in passed if op.traced]
    untraced = [op for op in passed if not op.traced]
    if not traced or not untraced:
        return {}
    rows = []
    for op in traced:
        row = layer_metrics(op.traces)
        row["cli.process_overhead_s"] = op.wall_s - op.main_s
        row["cli.output_bytes"] = op.output_bytes
        rows.append(row)
    table = {key: statistics.median(row.get(key, 0.0) for row in rows) for key in rows[0]}
    table["trace.overhead_s"] = (
        statistics.median(op.scaled_s for op in traced)
        - statistics.median(op.scaled_s for op in untraced)
    )
    calls = alloc["calls"]
    largest = max(calls, key=lambda c: c["vertices"])
    table["generators.alloc_peak_mb"] = max(c["peak_bytes"] for c in calls) / 1e6
    table["graph.bytes_per_vertex"] = largest["retained_bytes"] / largest["vertices"]
    return table


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import topoindices

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "package_version": topoindices.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


# ------------------------------------------------------------------- main


def run_checked(run_op, runner: Runner, op: Op) -> Op:
    """Run one op; output the gates cannot even parse fails the op."""
    try:
        run_op(runner, op)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.failures.append(f"malformed output: {exc!r}")
    return op


def measure(runner: Runner, workload: str) -> tuple[list[float], list[Op], dict | None]:
    """Interpreter starts spread over a closed loop of ops, then, when
    traced, the allocation run."""
    run_op, cap = WORKLOADS[workload]
    setup_probe(runner)  # writes the bytecode caches; not counted
    # The starts are spread over the whole loop, one after an op whenever
    # they fall behind its share of the run, so that they do not all land
    # in one stretch of a noisy host.
    setup = [runner.scaled(setup_probe(runner))]
    ops: list[Op] = []
    # The untimed op goes halfway through the timed ones, so that these
    # span more than one stretch of a noisy host; its time is not counted.
    cap_pending = cap is not None and not runner.traced
    start = time.monotonic()
    while True:
        op = run_checked(run_op, runner, Op(len(ops), traced=runner.traced and len(ops) % 2 == 1))
        ops.append(op)
        now = time.monotonic()
        if len(setup) < SETUP_STARTS * min(1.0, (now - start) / runner.seconds):
            setup.append(runner.scaled(setup_probe(runner)))
        if cap_pending and now - start >= runner.seconds / 2:
            ops.append(run_checked(cap, runner, Op(len(ops), traced=False, timed=False)))
            start += time.monotonic() - now
            cap_pending = False
            continue
        if runner.traced and len(ops) < 2:
            continue
        if now - start >= runner.seconds:
            break
        if now + op.wall_s > runner.deadline:
            print(f"stopped after {now - start:.1f} s of ops: the next would pass the "
                  f"{RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
            break
    setup += [runner.scaled(setup_probe(runner)) for _ in range(SETUP_STARTS - len(setup))]
    alloc = None
    if runner.traced:
        alloc_path = runner.tmp / "alloc.json"
        proc = runner.spawn([sys.executable, str(CHILD), "alloc", str(alloc_path), workload])
        if proc.exit != 0:
            raise RuntimeError(f"allocation run failed: {proc.stderr.decode(errors='replace')}")
        alloc = json.loads(alloc_path.read_text(encoding="utf-8"))
    return setup, ops, alloc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 < args.seconds <= MAX_SECONDS):
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:.0f}]")

    if not (SRC / "topoindices" / "__init__.py").is_file():
        print(f"error: no topoindices package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("env " + json.dumps(env), flush=True)

    # The client and every child it starts share one CPU, so that the
    # reference work runs on the CPU the op ran on: the CPUs of a shared
    # host change speed independently. The program is single-threaded.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(args.seed, args.seconds, bool(args.trace), tmp)
        setup, ops, alloc = measure(runner, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for op in ops if op.failures)
    end_to_end = summarize(ops, setup)
    table = layer_table(ops, alloc) if args.trace else {}
    env["loadavg_end"] = os.getloadavg()
    chosen = PER_LAYER if args.trace else END_TO_END
    values = table if args.trace else end_to_end
    # A metric with no passing op to measure it is missing, and the run
    # is then not correct.
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in chosen.items() if name in values}

    record = {
        "args": vars(args),
        "env": env,
        "end_to_end": end_to_end,
        "untraced_op_wall_s": wall_stats(
            [op.wall_s for op in ops if op.timed and not op.traced and not op.failures]
        ),
        "layers": table,
        "setup_samples": setup,
        "reference_s": runner.references,
        "ops": [
            {"op": op.index, "traced": op.traced, "timed": op.timed, "wall_s": op.wall_s, "scaled_s": op.scaled_s,
             "peak_rss_mb": op.peak_rss_mb, "main_s": op.main_s, "failures": op.failures}
            for op in ops
        ],
        "spans": [
            {"op": op.index, "process": i, **trace}
            for op in ops for i, trace in enumerate(op.traces)
        ],
        "alloc": alloc,
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record), encoding="utf-8")

    for op in ops:
        for failure in op.failures:
            print(f"FAILED op {op.index}: {failure}")
    for key, value in sorted(table.items()):
        print(f"layer {key} = {value:.6g}")
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")
    correct = failed == 0 and len(metrics) == len(chosen)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
