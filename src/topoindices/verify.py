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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class VerificationEntry:
    family: str
    kind: IndexKind
    n: int
    oracle_value: float
    closed_value: float
    variant: Variant
    rel_error: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "kind": self.kind.value,
            "n": self.n,
            "oracle_value": self.oracle_value,
            "closed_value": self.closed_value,
            "variant": self.variant.value,
            "rel_error": self.rel_error,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Summary:
    total: int
    passed: int
    failed: int
    max_rel_error: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "max_rel_error": self.max_rel_error,
        }


@dataclass(frozen=True)
class Erratum:
    location: str
    description: str
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "description": self.description,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class VerificationReport:
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


def _summarize(entries: tuple[VerificationEntry, ...]) -> Summary:
    passed = sum(1 for e in entries if e.passed)
    max_err = max((e.rel_error for e in entries), default=0.0)
    return Summary(len(entries), passed, len(entries) - passed, max_err)


def verify_family(
    family: str,
    kinds: tuple[IndexKind, ...] | None = None,
    n_range: tuple[int, int] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    variant: Variant = Variant.PROOF_DERIVED,
    include_errata: bool = True,
) -> VerificationReport:
    """Verify every (kind, n) closed form for one family against brute force.

    With ``n_range=None`` each kind uses its default range (dw: [3, 64];
    hanoi: [2, 8] for degree kinds, [3, 8] for neighbor-sum kinds). An
    explicit range applies to every requested kind and must respect each
    kind's validity floor and the generator size cap.

    Entries are listed in (family, kind, n) order regardless of how they
    were computed.
    """
    record = get_family(family)
    check_tolerance(tolerance)
    if kinds is None:
        kinds = tuple(IndexKind)

    ranges: dict[IndexKind, tuple[int, int]] = {}
    for kind in kinds:
        floor = record.min_n(kind)
        lo, hi = n_range if n_range is not None else (floor, record.default_max_n)
        if lo > hi:
            raise ValueError(f"empty range: n_min={lo} > n_max={hi}")
        if lo < floor:
            raise ValueError(
                f"{family} {kind.value} is only defined for n >= {floor}, "
                f"requested range starts at {lo}"
            )
        if record.max_n is not None and hi > record.max_n:
            raise ValueError(
                f"{family} generator size cap is n <= {record.max_n}, requested up to {hi}"
            )
        ranges[kind] = (lo, hi)

    # Build each graph once and reuse it across kinds.
    graphs: dict[int, Graph] = {}
    results: dict[tuple[int, int], VerificationEntry] = {}
    kind_order = {kind: i for i, kind in enumerate(IndexKind)}
    for kind in kinds:
        lo, hi = ranges[kind]
        for n in range(lo, hi + 1):
            if n not in graphs:
                graphs[n] = record.build(n)
            results[(kind_order[kind], n)] = verify_entry(
                family, kind, n, graphs[n], tolerance, variant
            )

    entries = tuple(results[key] for key in sorted(results))
    errata = errata_report() if include_errata else ()
    return VerificationReport(entries, _summarize(entries), tuple(errata))


def combine_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Concatenate entries from several reports under one summary; errata
    are recomputed so the combined report carries them exactly once."""
    entries = tuple(e for report in reports for e in report.entries)
    return VerificationReport(entries, _summarize(entries), tuple(errata_report()))


def verify_all(
    tolerance: float = DEFAULT_TOLERANCE,
    variant: Variant = Variant.PROOF_DERIVED,
) -> VerificationReport:
    """Verify both families over their default ranges in one report."""
    return combine_reports(
        [
            verify_family(family, tolerance=tolerance, variant=variant, include_errata=False)
            for family in FAMILIES
        ]
    )


def errata_report(n_probe: int = 3) -> list[Erratum]:
    """Errata the verification machinery exposes in the published derivations.

    Evaluates both double-wheel abc4 variants against the oracle at
    ``n_probe`` and emits an erratum per confirmed discrepancy, plus two
    static documentation errata: the neighbor-sum partition table for the
    Hanoi family omits its largest edge class, and the double-wheel abc4
    derivation cites a partition table by a number that does not exist.
    """
    floor = FAMILIES[DW].min_n(IndexKind.ABC4)
    if n_probe < floor:
        raise ValueError(f"n_probe must be >= {floor}, got {n_probe}")
    errata: list[Erratum] = []

    as_stated = closed_form(DW, IndexKind.ABC4, n_probe, Variant.AS_STATED).value
    proof_derived = closed_form(DW, IndexKind.ABC4, n_probe, Variant.PROOF_DERIVED).value
    oracle = brute_force_value(DW, IndexKind.ABC4, n_probe)
    confirmed = (
        relative_error(proof_derived, oracle) <= DEFAULT_TOLERANCE
        and relative_error(as_stated, oracle) > MISMATCH_ERROR
    )
    if confirmed:
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
                    "as_stated": as_stated,
                    "proof_derived": proof_derived,
                    "oracle": oracle,
                },
            )
        )

    hanoi_probe = min(n_probe, FAMILIES[HANOI].max_n)
    reconstructed = (3 ** (hanoi_probe + 1) - 33) // 2
    enumerated = neighbor_sum_partition(FAMILIES[HANOI].build(hanoi_probe)).classes.get((9, 9), 0)
    errata.append(
        Erratum(
            location="hanoi neighbor-sum edge partition table",
            description=(
                "the published table lists only three of the four edge classes; "
                "the (9, 9) class with count (3**(n+1) - 33) / 2 completes the "
                "partition and matches direct enumeration"
            ),
            evidence={
                "n": hanoi_probe,
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
