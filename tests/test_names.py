"""Every public name resolves, and so does every name the benchmark's tracer
wraps, so that a cleanup cannot silently break ``perfbench/run.py --trace 1``;
and each import loads only the modules it uses."""

import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import topoindices

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_public_and_traced_names_resolve(monkeypatch):
    missing = [name for name in topoindices.__all__ if not hasattr(topoindices, name)]
    assert missing == []
    assert set(topoindices.__all__) <= set(dir(topoindices))
    for module in ("closed_forms", "edgelist", "generators", "graph", "indices", "partition"):
        assert getattr(topoindices, module) is sys.modules[f"topoindices.{module}"]

    monkeypatch.syspath_prepend(str(PERFBENCH))
    # The tracer resolves its names after loading every module through the CLI.
    importlib.import_module("topoindices.cli")
    import tracing

    for module_name, attribute, *_ in [*tracing.SPANS.values(), *tracing.HOT.values()]:
        owner, leaf = tracing._resolve(module_name, attribute)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attribute}"


# The package's modules loaded after each step, in a fresh interpreter.
PROBE = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("topoindices."))

steps = []
import topoindices
steps.append(loaded())
from topoindices import generators, indices, partition
steps.append(loaded())
import topoindices.cli
steps.append(loaded())
from topoindices import edgelist
one = topoindices.from_edge_list is generators.from_edge_list is edgelist.from_edge_list
print(json.dumps([steps, one]))
"""


def test_each_import_loads_only_what_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # -S: no site hook may load a module first and hide which import did
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    (package, family_pass, cli), one = json.loads(proc.stdout)
    assert package == []
    # graph imports the block columns its classifier keeps
    modules = ("columns", "generators", "graph", "indices", "partition")
    assert family_pass == [f"topoindices.{name}" for name in modules]
    traced = {f"topoindices.{module_name}" for module_name, *_ in tracing.SPANS.values()}
    assert traced <= set(cli)
    assert "topoindices.edgelist" not in cli
    assert one


# Spans per name of each command line run under the benchmark's tracer
# ("TRIANGLE" names an edge-list file of one triangle): the CLI must keep
# calling the names the tracer wraps, or a layer's metrics read 0.
CLI_SPANS = [
    (
        "verify",
        {
            "cli.main": 1,
            "verify.verify_family": 2,
            "verify.combine_reports": 1,
            "verify.errata_report": 2,
            "verify.report_json": 1,
            "generators.double_wheel": 64,
            "generators.hanoi": 11,
            "indices.compute_index": 416,
            "closed_forms.closed_form": 418,
            "closed_forms.dw_closed_form": 378,
            "closed_forms.hanoi_closed_form": 40,
            "partition.neighbor_sum": 4,
        },
    ),
    (
        "compute --family dw --n 5 --method both",
        {
            "cli.main": 1,
            "generators.double_wheel": 1,
            "indices.compute_index": 6,
            "closed_forms.closed_form": 6,
            "closed_forms.dw_closed_form": 6,
        },
    ),
    (
        "compute --family dw --n 5 --method closed",
        {"cli.main": 1, "closed_forms.closed_form": 6, "closed_forms.dw_closed_form": 6},
    ),
    (
        "compute --family dw --n 5 --method brute",
        {"cli.main": 1, "generators.double_wheel": 1, "indices.compute_index": 6},
    ),
    (
        "compute --edges TRIANGLE",
        {"cli.main": 1, "generators.from_edge_list": 1, "indices.compute_index": 6},
    ),
    (
        "partition --family hanoi --n 4 --mode neighbor-sum",
        {"cli.main": 1, "generators.hanoi": 1, "partition.neighbor_sum": 1},
    ),
    ("generate --family hanoi --n 3", {"cli.main": 1, "generators.hanoi": 1}),
    (
        "errata",
        {
            "cli.main": 1,
            "verify.errata_report": 1,
            "generators.double_wheel": 1,
            "generators.hanoi": 2,
            "indices.compute_index": 2,
            "closed_forms.closed_form": 3,
            "closed_forms.dw_closed_form": 3,
            "partition.neighbor_sum": 2,
        },
    ),
]


@pytest.mark.parametrize("line, counts", CLI_SPANS, ids=[line for line, _ in CLI_SPANS])
def test_cli_spans_under_the_tracer(tmp_path, line, counts):
    triangle = tmp_path / "tri.txt"
    triangle.write_text("0 1\n1 2\n0 2\n")
    argv = [str(triangle) if word == "TRIANGLE" else word for word in line.split()]
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "cli", str(out), "--", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(out.read_text(encoding="utf-8"))["trace"]["spans"]
    assert Counter(span[0] for span in spans) == counts
