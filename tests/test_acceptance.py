"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import random
import subprocess
import sys
import time

from conftest import random_connected_graph
from topoindices import (
    IndexKind,
    Variant,
    compute_from_partition,
    compute_index,
    degree_partition,
    double_wheel,
    dw_closed_form,
    edge_term,
    hanoi,
    hanoi_closed_form,
    neighbor_sum_partition,
    relative_error,
)

ALL_KINDS = list(IndexKind)
DW_DEGREE_ANCHORED = [
    IndexKind.RANDIC,
    IndexKind.SUM_CONNECTIVITY,
    IndexKind.ABC,
    IndexKind.GA,
    IndexKind.GA5,
]
HANOI_DEGREE_KINDS = [k for k in ALL_KINDS if k.labeling == "degree"]
HANOI_S_KINDS = [k for k in ALL_KINDS if k.labeling == "neighbor_sum"]

TOL = 1e-9


def _report(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def test_criterion_1_dw_closed_form_agreement():
    failures = []
    start = time.perf_counter()
    for n in range(3, 65):
        g = double_wheel(n)
        for kind in DW_DEGREE_ANCHORED:
            oracle = compute_index(g, kind)
            closed = dw_closed_form(kind, n).value
            err = relative_error(closed, oracle)
            if err > TOL:
                failures.append(f"{kind.value} n={n} rel_error={err:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, f"dw closed forms match brute force, n in [3, 64] ({elapsed:.2f}s)", failures)


def test_criterion_2_dw_abc4_erratum():
    failures = []
    for n in range(3, 65):
        oracle = compute_index(double_wheel(n), IndexKind.ABC4)
        derived = dw_closed_form(IndexKind.ABC4, n, Variant.PROOF_DERIVED).value
        stated = dw_closed_form(IndexKind.ABC4, n, Variant.AS_STATED).value
        if relative_error(derived, oracle) > TOL:
            failures.append(f"proof_derived off at n={n}")
        if relative_error(stated, oracle) <= 0.10:
            failures.append(f"as_stated too close at n={n}")
    # spot anchors at n = 3
    stated3 = dw_closed_form(IndexKind.ABC4, 3, Variant.AS_STATED).value
    oracle3 = compute_index(double_wheel(3), IndexKind.ABC4)
    if abs(stated3 - 7.7417) > 1e-4:
        failures.append(f"as_stated(3) = {stated3}")
    if abs(oracle3 - 4.5055) > 1e-4:
        failures.append(f"oracle(3) = {oracle3}")
    _report(2, "dw abc4: derived variant matches oracle, stated variant is >10% off", failures)


def test_criterion_3_hanoi_closed_form_agreement():
    failures = []
    start = time.perf_counter()
    for n in range(2, 9):
        g = hanoi(n)
        kinds = HANOI_DEGREE_KINDS if n < 3 else HANOI_DEGREE_KINDS + HANOI_S_KINDS
        for kind in kinds:
            oracle = compute_index(g, kind)
            closed = hanoi_closed_form(kind, n).value
            err = relative_error(closed, oracle)
            if err > TOL:
                failures.append(f"{kind.value} n={n} rel_error={err:.3e}")
    spot = compute_index(hanoi(3), IndexKind.ABC)
    if abs(spot - (3 * math.sqrt(2) + 22)) > TOL * spot:
        failures.append(f"abc(h3) spot anchor = {spot}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(3, f"hanoi closed forms match brute force ({elapsed:.2f}s)", failures)


def test_criterion_4_partition_tables():
    failures = []
    for n in range(3, 65):
        g = double_wheel(n)
        if degree_partition(g).classes != {(3, 3): 2 * n, (3, 2 * n): 2 * n}:
            failures.append(f"dw degree table n={n}")
        expected_ns = {(2 * n + 6, 2 * n + 6): 2 * n, (2 * n + 6, 6 * n): 2 * n}
        if neighbor_sum_partition(g).classes != expected_ns:
            failures.append(f"dw neighbor-sum table n={n}")
    for n in range(2, 9):
        expected = {(2, 3): 6, (3, 3): (3 ** (n + 1) - 15) // 2}
        if degree_partition(hanoi(n)).classes != expected:
            failures.append(f"hanoi degree table n={n}")
    for n in range(3, 9):
        expected = {(6, 8): 6, (8, 8): 3, (8, 9): 6, (9, 9): (3 ** (n + 1) - 33) // 2}
        if neighbor_sum_partition(hanoi(n)).classes != expected:
            failures.append(f"hanoi neighbor-sum table n={n}")
    _report(4, "edge partitions reproduce all four published tables exactly", failures)


def test_criterion_5_structural_cardinalities():
    failures = []
    for n in range(1, 11):
        g = hanoi(n)
        if g.vertex_count != 3**n:
            failures.append(f"hanoi n={n} vertices")
        if g.edge_count() != 3 * (3**n - 1) // 2:
            failures.append(f"hanoi n={n} edges")
    for n in range(3, 201):
        g = double_wheel(n)
        if (g.vertex_count, g.edge_count(), g.degree(0)) != (2 * n + 1, 4 * n, 2 * n):
            failures.append(f"dw n={n}")
    _report(5, "hanoi and dw cardinalities hold across their ranges", failures)


def test_criterion_6_property_suite():
    failures = []
    rng = random.Random(20260809)
    graphs = [double_wheel(n) for n in (3, 4, 5, 10)]
    graphs += [hanoi(n) for n in (1, 2, 3, 4)]
    graphs += [random_connected_graph(rng, max_vertices=50) for _ in range(100)]
    for i, g in enumerate(graphs):
        m = g.edge_count()
        parts = {p.mode: p for p in (degree_partition(g), neighbor_sum_partition(g))}
        if any(p.total() != m for p in parts.values()):
            failures.append(f"graph {i}: partition total")
        for kind in ALL_KINDS:
            direct = compute_index(g, kind)
            grouped = compute_from_partition(parts[kind.labeling], kind)
            if grouped != direct:
                failures.append(f"graph {i}: {kind.value} partition mismatch")
            if direct < 0.0:
                failures.append(f"graph {i}: {kind.value} negative")
        if compute_index(g, IndexKind.GA) > m * (1 + 1e-12):
            failures.append(f"graph {i}: GA exceeds edge count")
        if compute_index(g, IndexKind.GA5) > m * (1 + 1e-12):
            failures.append(f"graph {i}: GA5 exceeds edge count")
    sample_labels = [(1, 1), (2, 3), (3, 10), (6, 8), (9, 9), (17, 200)]
    for kind in ALL_KINDS:
        for a, b in sample_labels:
            if edge_term(kind, a, b) != edge_term(kind, b, a):
                failures.append(f"{kind.value} asymmetric at ({a}, {b})")
    _report(6, "property suite on families plus 100 random connected graphs", failures)


def test_criterion_7_deterministic_reports():
    failures = []
    cmd = [sys.executable, "-m", "topoindices", "verify", "--family", "all"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(f"exit codes {first.returncode}, {second.returncode}")
    if first.stdout != second.stdout:
        failures.append("reports differ between runs")
    if not first.stdout.startswith(b"{"):
        failures.append("report is not JSON")
    _report(7, "consecutive verify runs emit byte-identical JSON reports", failures)
