"""Every public name resolves, and so does every name the benchmark's tracer
wraps, so that a cleanup cannot silently break ``perfbench/run.py --trace 1``;
and each import loads only the modules it uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    modules = ("generators", "graph", "indices", "partition")
    assert family_pass == [f"topoindices.{name}" for name in modules]
    traced = {f"topoindices.{module_name}" for module_name, *_ in tracing.SPANS.values()}
    assert traced <= set(cli)
    assert "topoindices.edgelist" not in cli
    assert one
