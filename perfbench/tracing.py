"""Spans around calls into topoindices, recorded in memory.

A traced child process calls :func:`install` before it runs its op. Each
wrapped public function is replaced in every ``topoindices`` module that
looks it up by name (``topoindices.verify.compute_index``,
``topoindices.cli.hanoi``, ...) and on the class for methods
(``Graph.edges``). The package source is never edited.

A span is ``[name, start, end, parent, hot_s, info]``: ``parent`` is the
index of the enclosing span or -1, ``hot_s`` the time spent in "hot"
functions while the span was open, and ``info`` the counts taken after the
call returned, outside the timed interval. Hot functions are called once
per vertex, far too often for a span each, so they only add up their time
and call count.

:func:`layer_metrics` turns one op's spans into the per-layer table. Times
are self times: a span's duration minus its child spans and minus the hot
time directly inside it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _generator_info(args, graph):
    n = args[0] if args and type(args[0]) is int else None
    return {"n": n, "vertices": graph.vertex_count}


def _edge_terms(args, result):
    return {"terms": args[0].edge_count()}


def _partition_terms(args, result):
    return {"terms": len(args[0].classes)}


def _classes(args, result):
    return {"classes": len(result.classes)}


def _checks(args, report):
    return {"checks": len(report.entries)}


# span name -> (module, attribute, info hook). The name's prefix is the layer.
SPANS = {
    "generators.hanoi": ("generators", "hanoi", _generator_info),
    "generators.double_wheel": ("generators", "double_wheel", _generator_info),
    "generators.to_edge_list": ("generators", "to_edge_list", None),
    "generators.from_edge_list": ("generators", "from_edge_list", _generator_info),
    "graph.edges": ("graph", "Graph.edges", None),
    "graph.validate": ("graph", "Graph.validate", None),
    "indices.compute_index": ("indices", "compute_index", _edge_terms),
    "indices.compute_from_partition": ("indices", "compute_from_partition", _partition_terms),
    "partition.degree": ("partition", "degree_partition", _classes),
    "partition.neighbor_sum": ("partition", "neighbor_sum_partition", _classes),
    "closed_forms.closed_form": ("closed_forms", "closed_form", None),
    "closed_forms.dw_closed_form": ("closed_forms", "dw_closed_form", None),
    "closed_forms.hanoi_closed_form": ("closed_forms", "hanoi_closed_form", None),
    "verify.verify_all": ("verify", "verify_all", None),
    "verify.verify_family": ("verify", "verify_family", _checks),
    "verify.combine_reports": ("verify", "combine_reports", None),
    "verify.errata_report": ("verify", "errata_report", None),
    "verify.report_json": ("verify", "VerificationReport.to_json", None),
}

# hot name -> (module, attribute)
HOT = {
    "graph.neighbor_degree_sum": ("graph", "Graph.neighbor_degree_sum"),
}

GENERATOR_SPANS = ("generators.hanoi", "generators.double_wheel", "generators.from_edge_list")


class Tracer:
    """Spans and hot-function totals of one op in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}
        self.hot_s = 0.0
        self._stack: list[int] = []

    def span(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            hot_before = self.hot_s
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
                record[4] = self.hot_s - hot_before
            if info is not None:
                record[5] = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_wrapper(self, name: str, fn):
        totals = self.hot.setdefault(name, [0.0, 0])

        def wrapper(*args):
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            totals[0] += elapsed
            totals[1] += 1
            self.hot_s += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "hot": self.hot}


def _resolve(module_name: str, attribute: str):
    owner = sys.modules[f"topoindices.{module_name}"]
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def rebind(owner, leaf: str, wrapper) -> None:
    """Put ``wrapper`` where ``owner.leaf`` is looked up: on the class for a
    method, else in every topoindices module that imported the function."""
    original = getattr(owner, leaf)
    if isinstance(owner, type):
        setattr(owner, leaf, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "topoindices":
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every name in SPANS and HOT wherever a topoindices module binds it."""
    import topoindices.cli  # noqa: F401  (loads every module of the package)

    for name, (module_name, attribute, info) in SPANS.items():
        owner, leaf = _resolve(module_name, attribute)
        rebind(owner, leaf, tracer.span(name, getattr(owner, leaf), info))
    for name, (module_name, attribute) in HOT.items():
        owner, leaf = _resolve(module_name, attribute)
        rebind(owner, leaf, tracer.hot_wrapper(name, getattr(owner, leaf)))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its child spans and its direct hot time."""
    child_s = [0.0] * len(spans)
    child_hot = [0.0] * len(spans)
    for name, start, end, parent, hot, info in spans:
        if parent >= 0:
            child_s[parent] += end - start
            child_hot[parent] += hot
    return [
        (end - start) - child_s[i] - (hot - child_hot[i])
        for i, (name, start, end, parent, hot, info) in enumerate(spans)
    ]


def _has_ancestor(spans: list[list], index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(layer + "."):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced processes of one op."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    builds: list[tuple] = []
    for trace in traces:
        spans = trace["spans"]
        for i, own in enumerate(self_times(spans)):
            name, start, end, parent, hot, info = spans[i]
            layer = name.split(".")[0]
            busy[name] += own
            busy[layer] += own
            calls[name] += 1
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                calls[layer] += 1
            info = info or {}
            out["indices.edge_terms"] += info.get("terms", 0)
            out["partition.classes"] += info.get("classes", 0)
            out["verify.checks"] += info.get("checks", 0)
            if name == "cli.main":
                out["cli.main_s"] += end - start
                out[f"cli.main.{info['command']}_s"] += end - start
            if name in GENERATOR_SPANS and _has_ancestor(spans, i, "verify"):
                builds.append((name, info.get("n")))
        for name, (seconds, count) in trace["hot"].items():
            busy[name] += seconds
            calls[name] += count
            busy[name.split(".")[0]] += seconds

    out.update(
        {
            "generators.s": busy["generators"],
            "generators.hanoi_s": busy["generators.hanoi"],
            "generators.double_wheel_s": busy["generators.double_wheel"],
            "generators.to_edge_list_s": busy["generators.to_edge_list"],
            "generators.from_edge_list_s": busy["generators.from_edge_list"],
            "graph.s": busy["graph"],
            "graph.edges_s": busy["graph.edges"],
            "graph.edges_calls": calls["graph.edges"],
            "graph.neighbor_sum_labels_s": busy["graph.neighbor_degree_sum"],
            "graph.neighbor_sum_labels_calls": calls["graph.neighbor_degree_sum"],
            "graph.validate_s": busy["graph.validate"],
            "indices.s": busy["indices"],
            "indices.compute_index_s": busy["indices.compute_index"],
            "indices.compute_index_calls": calls["indices.compute_index"],
            "indices.compute_from_partition_s": busy["indices.compute_from_partition"],
            "partition.s": busy["partition"],
            "partition.degree_s": busy["partition.degree"],
            "partition.neighbor_sum_s": busy["partition.neighbor_sum"],
            "closed_forms.s": busy["closed_forms"],
            "closed_forms.calls": calls["closed_forms"],
            "verify.s": busy["verify"],
            "verify.verify_family_s": busy["verify.verify_family"],
            "verify.errata_report_s": busy["verify.errata_report"],
            "verify.report_json_s": busy["verify.report_json"],
            "verify.graph_builds": len(builds),
            "verify.graph_reuse": len(set(builds)) / len(builds) if builds else 0.0,
            "cli.s": busy["cli"],
            "cli.main_s": out["cli.main_s"],
        }
    )
    return dict(out)
