"""Cross-checking of closed forms against the brute-force oracle.

The oracle path builds the graph with the family's generator and sums edge
weights directly, so no closed form enters it; the closed-form path
evaluates the published expression. Each (family, kind, n) entry records
both values, their relative error, and pass/fail at ``DEFAULT_TOLERANCE``,
the one tolerance of every check. Reports also carry the errata these
checks expose in the published derivations, and serialize
deterministically so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import NamedTuple

from .closed_forms import DW, FAMILIES, HANOI, ClosedFormResult, Variant, closed_form, get_family
from .graph import Graph
from .indices import IndexKind, _require_kind, compute_index
from .partition import neighbor_sum_partition

DEFAULT_TOLERANCE = 1e-9

# The size of the graphs whose numbers back the errata (errata_report).
_PROBE_N = 3

# Avoids division by zero in relative errors. It applies only to an oracle
# below it in size, as in relative_error(0.0, 0.0); every index value that a
# check computes is >= 1, so no check reaches it.
_REL_ERROR_FLOOR = 1e-300

# Encoder chunks per join in VerificationReport.to_json.
_JSON_BATCH = 1024


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
        """The report as JSON, equal byte for byte to
        ``json.dumps(self.to_dict(), indent=2)``.

        With an indent the stdlib encoder yields one short string per token,
        and ``json.dumps`` holds all of them in one list before it joins them,
        about eight times the report's size. Joining ``_JSON_BATCH`` chunks at
        a time holds one batch of them beside the joined pieces instead.
        """
        chunks = json.JSONEncoder(indent=2).iterencode(self.to_dict())
        pieces = []
        while batch := list(islice(chunks, _JSON_BATCH)):
            pieces.append("".join(batch))
        return "".join(pieces)


def relative_error(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(oracle), _REL_ERROR_FLOOR)


def verify_entry(
    family: str,
    kind: IndexKind,
    n: int,
    graph: Graph,
    variant: Variant,
) -> VerificationEntry:
    """Check one closed form against brute force on ``graph``, the family's
    graph of size ``n``."""
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
        passed=err <= DEFAULT_TOLERANCE,
    )


def _report(
    entries: tuple[VerificationEntry, ...], errata: tuple[Erratum, ...]
) -> VerificationReport:
    """``entries`` under their summary, with ``errata``."""
    passed = sum(1 for e in entries if e.passed)
    max_err = max((e.rel_error for e in entries), default=0.0)
    summary = Summary(len(entries), passed, len(entries) - passed, max_err)
    return VerificationReport(entries, summary, errata)


def verify_family(
    family: str,
    kinds: tuple[IndexKind, ...] | None = None,
    n_range: tuple[int, int] | None = None,
    variant: Variant = Variant.PROOF_DERIVED,
) -> VerificationReport:
    """Verify every (kind, n) closed form for one family against brute force.

    Every kind runs up to one shared end: ``n_range[1]``, or the family's
    default (dw: 64; hanoi: 8). Each kind starts at ``n_range[0]``, or by
    default at its validity floor (dw: 3; hanoi: 2 for degree kinds, 3 for
    neighbor-sum kinds). An explicit range must respect each kind's floor
    and the generator size cap; the checks run per kind in
    :class:`IndexKind` order, each raising for an empty range, then a start
    below the floor, then an end above the cap. Before them, ``kinds`` is
    read once: an item that is not an :class:`IndexKind` raises
    ``TypeError``, and an empty selection ``ValueError``.

    Entries are listed in :class:`IndexKind` order, then by n, whatever the
    order of ``kinds``. The report carries the errata.
    """
    record = get_family(family)
    selected = tuple(IndexKind) if kinds is None else tuple(kinds)
    for kind in selected:
        _require_kind(kind)
    if not selected:
        raise ValueError("no kinds to verify")
    kinds = tuple(kind for kind in IndexKind if kind in selected)

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
    for n in range(min(starts.values()), hi + 1):
        graph = record.build(n)
        for kind, start in starts.items():
            if start <= n:
                entries[kind].append(verify_entry(family, kind, n, graph, variant))
        del graph

    return _report(tuple(chain.from_iterable(entries.values())), tuple(errata_report()))


def combine_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Concatenate entries from several reports under one summary. Every
    report this package makes carries the same errata, so the combined
    report carries those of its first input, or :func:`errata_report`'s for
    an empty list; the errata of later inputs are not compared."""
    errata = reports[0].errata if reports else tuple(errata_report())
    return _report(tuple(e for report in reports for e in report.entries), errata)


def verify_all() -> VerificationReport:
    """Verify the proof-derived closed forms of both families over their
    default ranges in one report."""
    return combine_reports([verify_family(family) for family in FAMILIES])


def errata_report() -> list[Erratum]:
    """Errata the verification machinery exposes in the published derivations.

    The probe size is ``_PROBE_N``, 3. Checks both double-wheel abc4
    variants with :func:`verify_entry` on ``double_wheel(3)`` and emits the
    abc4 erratum when the stated form equals the degree-based abc closed
    form bit for bit, the proof-derived form passes at
    ``DEFAULT_TOLERANCE``, and the stated one fails at it. The Hanoi
    erratum follows when the reconstructed count of the neighbor-sum
    partition's missing (9, 9) class, ``(3**(k+1) - 33) // 2``, equals the
    count enumerated on ``hanoi(k)`` at ``k = 3`` and at ``k = 4``; its
    evidence is that of ``k = 3``. Last comes a static documentation
    erratum: the double-wheel abc4 derivation cites a partition table by a
    number that does not exist.
    """
    errata: list[Erratum] = []

    graph = FAMILIES[DW].build(_PROBE_N)
    stated, derived = (
        verify_entry(DW, IndexKind.ABC4, _PROBE_N, graph, variant)
        for variant in (Variant.AS_STATED, Variant.PROOF_DERIVED)
    )
    duplicate = stated.closed_value == closed_form(DW, IndexKind.ABC, _PROBE_N).value
    if duplicate and derived.passed and not stated.passed:
        errata.append(
            Erratum(
                location="double-wheel abc4 closed form (statement vs. derivation)",
                description=(
                    "the stated formula duplicates the degree-based abc closed "
                    "form and does not match brute force; the expression reached "
                    "at the end of its own derivation does"
                ),
                evidence={
                    "n": _PROBE_N,
                    "as_stated": stated.closed_value,
                    "proof_derived": derived.closed_value,
                    "oracle": derived.oracle_value,
                },
            )
        )

    # The count is affine in 3**n, so agreement at two sizes pins it.
    sizes = (_PROBE_N, _PROBE_N + 1)
    reconstructed = {k: (3 ** (k + 1) - 33) // 2 for k in sizes}
    enumerated = {
        k: neighbor_sum_partition(FAMILIES[HANOI].build(k)).classes.get((9, 9), 0) for k in sizes
    }
    if reconstructed == enumerated:
        errata.append(
            Erratum(
                location="hanoi neighbor-sum edge partition table",
                description=(
                    "the published table lists only three of the four edge classes; "
                    "the (9, 9) class with count (3**(n+1) - 33) / 2 completes the "
                    "partition and matches direct enumeration"
                ),
                evidence={
                    "n": _PROBE_N,
                    "reconstructed_count": reconstructed[_PROBE_N],
                    "enumerated_count": enumerated[_PROBE_N],
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
