"""Cross-checking of closed forms against the brute-force oracle.

The oracle path builds the graph with the family's generator and sums edge
weights directly, so no closed form enters it; the closed-form path
evaluates the published expression. Each (family, kind, n) entry records both values,
their relative error, and pass/fail at the given tolerance. Reports also
carry the errata these checks expose in the published derivations, and
serialize deterministically so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import NamedTuple

from .closed_forms import DW, FAMILIES, HANOI, ClosedFormResult, Variant, closed_form, get_family
from .graph import Graph
from .indices import IndexKind, compute_index
from .partition import neighbor_sum_partition

DEFAULT_TOLERANCE = 1e-9

# A relative error above this marks a closed form as wrong (errata_report).
# Every tolerance must stay below it, so no setting can pass such a formula.
MISMATCH_ERROR = 0.1

# Avoids division by zero in relative errors; index values in scope are
# all >= 1, so this floor never activates in practice.
_REL_ERROR_FLOOR = 1e-300


class VerificationEntry(NamedTuple):
    family: str
    kind: IndexKind
    n: int
    oracle_value: float
    closed_value: float
    variant: Variant
    rel_error: float
    passed: bool

    def to_dict(self) -> dict:
        record = {**self._asdict(), "kind": self.kind.value, "variant": self.variant.value}
        # `passed` is the last field, so its "pass" key stays last
        record["pass"] = record.pop("passed")
        return record


class Summary(NamedTuple):
    total: int
    passed: int
    failed: int
    max_rel_error: float

    def to_dict(self) -> dict:
        return self._asdict()


class Erratum(NamedTuple):
    location: str
    description: str
    evidence: dict

    def to_dict(self) -> dict:
        # a fresh evidence dict, so the caller may mutate the result
        return {**self._asdict(), "evidence": dict(self.evidence)}


class VerificationReport(NamedTuple):
    entries: tuple[VerificationEntry, ...]
    summary: Summary
    errata: tuple[Erratum, ...]

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "summary": self.summary.to_dict(),
            "errata": [e.to_dict() for e in self.errata],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def relative_error(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(oracle), _REL_ERROR_FLOOR)


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance outside ``0 < tolerance < MISMATCH_ERROR``, nan included."""
    if not 0 < tolerance < MISMATCH_ERROR:
        raise ValueError(f"tolerance must satisfy 0 < tol < {MISMATCH_ERROR}, got {tolerance}")


def brute_force_value(family: str, kind: IndexKind, n: int) -> float:
    """Oracle value: direct edge summation over the generated graph."""
    return compute_index(get_family(family).build(n), kind)


def verify_entry(
    family: str,
    kind: IndexKind,
    n: int,
    graph: Graph,
    tolerance: float,
    variant: Variant,
) -> VerificationEntry:
    """Check one closed form against brute force on ``graph``, the family's
    graph of size ``n``; the caller has checked ``tolerance``."""
    oracle = compute_index(graph, kind)
    closed: ClosedFormResult = closed_form(family, kind, n, variant)
    err = relative_error(closed.value, oracle)
    return VerificationEntry(
        family=family,
        kind=kind,
        n=n,
        oracle_value=oracle,
        closed_value=closed.value,
        variant=variant,
        rel_error=err,
        passed=err <= tolerance,
    )


def _report(entries: tuple[VerificationEntry, ...]) -> VerificationReport:
    """``entries`` under their summary, with the errata."""
    passed = sum(1 for e in entries if e.passed)
    max_err = max((e.rel_error for e in entries), default=0.0)
    summary = Summary(len(entries), passed, len(entries) - passed, max_err)
    return VerificationReport(entries, summary, tuple(errata_report()))


def verify_family(
    family: str,
    kinds: tuple[IndexKind, ...] | None = None,
    n_range: tuple[int, int] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    variant: Variant = Variant.PROOF_DERIVED,
) -> VerificationReport:
    """Verify every (kind, n) closed form for one family against brute force.

    Every kind runs up to one shared end: ``n_range[1]``, or the family's
    default (dw: 64; hanoi: 8). Each kind starts at ``n_range[0]``, or by
    default at its validity floor (dw: 3; hanoi: 2 for degree kinds, 3 for
    neighbor-sum kinds). An explicit range must respect each kind's floor
    and the generator size cap; the checks run per kind in
    :class:`IndexKind` order, each raising for an empty range, then a start
    below the floor, then an end above the cap.

    Entries are listed in :class:`IndexKind` order, then by n, whatever the
    order of ``kinds``. The report carries the errata.
    """
    record = get_family(family)
    check_tolerance(tolerance)
    if kinds is None:
        kinds = tuple(IndexKind)
    elif not set(kinds) <= set(IndexKind):
        raise TypeError(f"kinds must be IndexKind members, got {kinds!r}")
    kinds = tuple(kind for kind in IndexKind if kind in kinds)

    lo, hi = n_range if n_range is not None else (None, record.default_max_n)
    starts = {kind: record.min_n(kind) if lo is None else lo for kind in kinds}
    for kind, start in starts.items():
        floor = record.min_n(kind)
        if start > hi:
            raise ValueError(f"empty range: n_min={start} > n_max={hi}")
        if start < floor:
            raise ValueError(
                f"{family} {kind.value} is only defined for n >= {floor}, "
                f"requested range starts at {start}"
            )
        if hi > record.max_n:
            raise ValueError(
                f"{family} generator size cap is n <= {record.max_n}, requested up to {hi}"
            )

    # Build each graph once, check every kind on it, and let it go, so at
    # most one graph is held at a time.
    entries: dict[IndexKind, list[VerificationEntry]] = {kind: [] for kind in kinds}
    for n in range(min(starts.values(), default=hi + 1), hi + 1):
        graph = record.build(n)
        for kind, start in starts.items():
            if start <= n:
                entries[kind].append(verify_entry(family, kind, n, graph, tolerance, variant))
        del graph

    return _report(tuple(chain.from_iterable(entries.values())))


def combine_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Concatenate entries from several reports under one summary; errata
    are recomputed so the combined report carries them exactly once."""
    return _report(tuple(e for report in reports for e in report.entries))


def verify_all(
    tolerance: float = DEFAULT_TOLERANCE,
    variant: Variant = Variant.PROOF_DERIVED,
) -> VerificationReport:
    """Verify both families over their default ranges in one report."""
    return combine_reports(
        [verify_family(family, tolerance=tolerance, variant=variant) for family in FAMILIES]
    )


def errata_report(n_probe: int = 3) -> list[Erratum]:
    """Errata the verification machinery exposes in the published derivations.

    Checks both double-wheel abc4 variants with :func:`verify_entry` on one
    ``double_wheel(n_probe)`` and emits the abc4 erratum when the
    proof-derived form passes at ``DEFAULT_TOLERANCE`` and the stated one
    is off by more than ``MISMATCH_ERROR``. Two static documentation errata
    follow: the neighbor-sum partition table for the Hanoi family omits its
    largest edge class, and the double-wheel abc4 derivation cites a
    partition table by a number that does not exist. The Hanoi evidence is
    enumerated on ``hanoi(n_probe)``, so ``n_probe`` must not exceed the
    Hanoi generator cap.
    """
    floor, cap = FAMILIES[DW].min_n(IndexKind.ABC4), FAMILIES[HANOI].max_n
    if not floor <= n_probe <= cap:
        raise ValueError(f"n_probe must satisfy {floor} <= n_probe <= {cap}, got {n_probe}")
    errata: list[Erratum] = []

    graph = FAMILIES[DW].build(n_probe)
    stated, derived = (
        verify_entry(DW, IndexKind.ABC4, n_probe, graph, DEFAULT_TOLERANCE, variant)
        for variant in (Variant.AS_STATED, Variant.PROOF_DERIVED)
    )
    if derived.passed and stated.rel_error > MISMATCH_ERROR:
        errata.append(
            Erratum(
                location="double-wheel abc4 closed form (statement vs. derivation)",
                description=(
                    "the stated formula duplicates the degree-based abc closed "
                    "form and does not match brute force; the expression reached "
                    "at the end of its own derivation does"
                ),
                evidence={
                    "n": n_probe,
                    "as_stated": stated.closed_value,
                    "proof_derived": derived.closed_value,
                    "oracle": derived.oracle_value,
                },
            )
        )

    reconstructed = (3 ** (n_probe + 1) - 33) // 2
    enumerated = neighbor_sum_partition(FAMILIES[HANOI].build(n_probe)).classes.get((9, 9), 0)
    errata.append(
        Erratum(
            location="hanoi neighbor-sum edge partition table",
            description=(
                "the published table lists only three of the four edge classes; "
                "the (9, 9) class with count (3**(n+1) - 33) / 2 completes the "
                "partition and matches direct enumeration"
            ),
            evidence={
                "n": n_probe,
                "reconstructed_count": reconstructed,
                "enumerated_count": enumerated,
            },
        )
    )

    errata.append(
        Erratum(
            location="double-wheel abc4 derivation, partition table citation",
            description=(
                "the derivation cites a partition table by a number that does "
                "not exist in the source; the neighbor-sum edge partition table "
                "is the one actually used"
            ),
            evidence={},
        )
    )
    return errata
