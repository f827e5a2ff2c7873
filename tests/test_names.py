"""Every public name resolves, and so does every name the benchmark's tracer
wraps, so that a cleanup cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

import topoindices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_and_traced_names_resolve(monkeypatch):
    missing = [name for name in topoindices.__all__ if not hasattr(topoindices, name)]
    assert missing == []

    monkeypatch.syspath_prepend(str(PERFBENCH))
    # The tracer resolves its names after loading every module through the CLI.
    importlib.import_module("topoindices.cli")
    import tracing

    for module_name, attribute, *_ in [*tracing.SPANS.values(), *tracing.HOT.values()]:
        owner, leaf = tracing._resolve(module_name, attribute)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attribute}"
