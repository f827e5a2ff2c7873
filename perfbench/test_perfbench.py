"""Tests of the benchmark's own gates, metrics and tracing.

    python -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from child import hanoi_pass  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402
from topoindices import (  # noqa: E402
    IndexKind,
    Variant,
    compute_index,
    double_wheel,
    dw_closed_form,
    neighbor_sum_partition,
)


def dw_values(n: int) -> dict[str, float]:
    g = double_wheel(n)
    return {kind.value: compute_index(g, kind) for kind in IndexKind}


class TestGates(unittest.TestCase):
    def test_brute_force_passes_proof_derived(self):
        self.assertEqual(run.check_dw_values(dw_values(50), 50), [])

    def test_as_stated_abc4_fails_whatever_the_tolerance(self):
        values = dw_values(50)
        failures = run.check_dw_values(values, 50, Variant.AS_STATED)
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(failures[0].startswith("abc4:"))
        # The printed formula is off by more than the value itself, so no
        # relative tolerance short of 100% could let it through.
        stated = dw_closed_form(IndexKind.ABC4, 50, Variant.AS_STATED).value
        self.assertGreater(abs(stated - values["abc4"]), abs(values["abc4"]))

    def test_hanoi_pass_gate(self):
        out = json.loads(json.dumps(hanoi_pass(5)))
        self.assertEqual(run.check_hanoi_pass(out, 5), [])
        out["brute"]["ga5"] *= 1 + 1e-8
        out["classes"]["neighbor_sum"][-1][2] -= 1
        failures = run.check_hanoi_pass(out, 5)
        self.assertEqual(len(failures), 3, failures)

    def test_dw_partition_gate(self):
        p = neighbor_sum_partition(double_wheel(7))
        payload = {
            "mode": p.mode,
            "classes": [{"lo": lo, "hi": hi, "count": c} for (lo, hi), c in p.sorted_items()],
        }
        self.assertEqual(run.check_dw_partition(payload, 7), [])
        payload["classes"][0]["count"] += 1
        self.assertEqual(len(run.check_dw_partition(payload, 7)), 2)

    def test_verify_report_gate(self):
        report = {"summary": {"total": 412, "passed": 411, "failed": 1}, "errata": [{}] * 3}
        self.assertEqual(len(run.check_verify_report(json.dumps(report).encode())), 1)


class TestSummary(unittest.TestCase):
    def test_wrong_output_counts_as_failed_and_untimed(self):
        def op(index, *walls, rss=10.0):
            op = run.Op(index, traced=False)
            for wall in walls:
                self.assertTrue(op.add(run.Proc(wall, wall / 2, rss, 0, b"", b""), "step"))
            return op

        good = [op(0, 1.0, 5.0), op(1, 2.0, 3.0), op(2, 2.0, 4.0)]
        bad = op(3, 0.5, 0.5, rss=90.0)
        bad.failures += run.check_dw_values(dw_values(20), 20, Variant.AS_STATED)
        self.assertTrue(bad.failures)
        metrics = run.summarize([*good, bad], [0.1])
        self.assertEqual(metrics["pass_ratio"], 3 / 4)
        self.assertEqual(metrics["run_s"], 3.0)
        self.assertEqual(metrics["peak_rss_mb"], 10.0)

        # With no passing op, the failed ops' times are not reported.
        metrics = run.summarize([bad], [0.1])
        self.assertEqual(metrics["pass_ratio"], 0.0)
        self.assertNotIn("run_s", metrics)
        self.assertNotIn("peak_rss_mb", metrics)

    def test_times_are_scaled_by_the_reference_around_them(self):
        runner = run.Runner(1, 1.0, False, Path(tempfile.gettempdir()))
        times = iter([0.2, 0.1, 0.3])
        original = run.reference
        run.reference = lambda: next(times)
        try:
            # Halfway between 0.2 and 0.1 s the reference ran at 1.5 times
            # REF_S, so the host ran at two thirds of the reference speed.
            self.assertAlmostEqual(runner.scaled(3.0), 3.0 * run.REF_S / 0.15)
            self.assertAlmostEqual(runner.scaled(1.0), 1.0 * run.REF_S / 0.2)
        finally:
            run.reference = original
        self.assertGreater(run.reference(), 0.0)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class TestTracing(unittest.TestCase):
    def test_self_times_subtract_children_and_hot_time(self):
        spans = [
            ["verify.verify_family", 0.0, 10.0, -1, 3.0, None],
            ["indices.compute_index", 1.0, 5.0, 0, 2.0, {"terms": 7}],
            ["generators.hanoi", 6.0, 7.0, 0, 0.0, {"n": 3, "vertices": 27}],
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 1.0])
        table = layer_metrics([{"spans": spans, "hot": {"graph.neighbor_degree_sum": [3.0, 5]}}])
        self.assertEqual(table["indices.edge_terms"], 7)
        self.assertEqual(table["graph.neighbor_sum_labels_s"], 3.0)
        self.assertEqual(table["verify.graph_builds"], 1)

    def test_traced_cli_child_wraps_every_lookup_site(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "trace.json"
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(out), "--",
                    "verify", "--family", "dw", "--n-min", "3", "--n-max", "4",
                    "--out", str(Path(tmp) / "report.json")]
            env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
            subprocess.run(argv, check=True, env=env, capture_output=True, timeout=60)
            trace = json.loads(out.read_text())["trace"]
        names = {span[0] for span in trace["spans"]}
        self.assertLessEqual(
            {"cli.main", "verify.verify_family", "indices.compute_index", "graph.edges",
             "closed_forms.closed_form", "closed_forms.dw_closed_form", "verify.report_json"},
            names,
        )
        table = layer_metrics([trace])
        # 12 checks plus one oracle value in the errata report.
        self.assertEqual(table["indices.compute_index_calls"], 13)
        self.assertEqual(table["verify.checks"], 12)
        self.assertEqual(table["closed_forms.calls"], 14)


class TestChildren(unittest.TestCase):
    def test_peak_memory_is_the_childs_own(self):
        # A child forked straight from this process would report at least
        # this process's resident size.
        ballast = bytearray(150_000_000)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        with tempfile.TemporaryDirectory() as tmp:
            proc = run.Runner(1, 1.0, False, Path(tmp)).spawn([sys.executable, "-c", "pass"])
        self.assertEqual(proc.exit, 0)
        self.assertLess(proc.peak_rss_mb, 100.0)
        self.assertGreater(proc.peak_rss_mb, 1.0)
        del ballast

    def test_a_child_past_the_deadline_is_killed_with_its_launcher(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(1, 1.0, False, Path(tmp))
            runner.deadline = 0.0  # every child gets the shortest limit, 1 s
            start = time.monotonic()
            proc = runner.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
        self.assertLess(time.monotonic() - start, 30.0)
        self.assertNotEqual(proc.exit, 0)


class TestInputs(unittest.TestCase):
    def test_shuffle_is_seeded_and_keeps_the_edges(self):
        with tempfile.TemporaryDirectory() as tmp:
            src, a, b, c = (Path(tmp) / name for name in "sabc")
            src.write_text("".join(f"{u} {u + 1}\n" for u in range(50)))
            run.shuffle_edge_list(src, a, random.Random(1))
            run.shuffle_edge_list(src, b, random.Random(1))
            run.shuffle_edge_list(src, c, random.Random(2))
            self.assertEqual(a.read_text(), b.read_text())
            self.assertNotEqual(a.read_text(), c.read_text())

            def edges(p):
                return sorted(tuple(sorted(map(int, line.split()))) for line in p.read_text().splitlines())

            self.assertEqual(edges(a), edges(src))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
