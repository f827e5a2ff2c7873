import json
import math
import re

import pytest

from topoindices import (
    IndexKind,
    Variant,
    brute_force_value,
    combine_reports,
    errata_report,
    relative_error,
    verify_all,
    verify_family,
)
from topoindices.closed_forms import FAMILIES


class TestVerifyFamily:
    def test_dw_all_kinds_pass(self):
        report = verify_family("dw", n_range=(3, 10))
        assert report.summary.failed == 0
        assert report.summary.total == 6 * 8
        assert report.summary.max_rel_error <= 1e-9

    def test_hanoi_abc_range(self):
        report = verify_family("hanoi", kinds=(IndexKind.ABC,), n_range=(2, 8))
        assert report.summary.total == 7
        assert report.summary.failed == 0

    def test_entries_sorted_by_kind_then_n(self):
        report = verify_family("dw", n_range=(3, 5))
        keys = [(e.kind, e.n) for e in report.entries]
        order = {kind: i for i, kind in enumerate(IndexKind)}
        assert keys == sorted(keys, key=lambda t: (order[t[0]], t[1]))

    def test_summary_consistent_with_entries(self):
        report = verify_family("hanoi", n_range=None)
        passed = sum(1 for e in report.entries if e.passed)
        assert report.summary.passed == passed
        assert report.summary.failed == len(report.entries) - passed
        assert report.summary.total == len(report.entries)
        assert report.summary.max_rel_error == max(e.rel_error for e in report.entries)

    def test_below_validity_floor_rejected(self):
        with pytest.raises(ValueError):
            verify_family("hanoi", kinds=(IndexKind.ABC4,), n_range=(2, 2))
        with pytest.raises(ValueError):
            verify_family("dw", n_range=(2, 5))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            verify_family("hanoi", n_range=(9, 2))

    def test_range_beyond_generator_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            verify_family("hanoi", kinds=(IndexKind.ABC,), n_range=(2, 20))

    def test_bad_tolerance_rejected(self):
        # 0.9 would pass the as-stated abc4, whose error is at least 0.718
        for tolerance in (0.0, math.nan, math.inf, -1.0, 0.1, 0.9):
            with pytest.raises(ValueError, match="0 < tol < 0.1"):
                verify_family("dw", n_range=(3, 4), tolerance=tolerance)
        assert verify_family("dw", n_range=(3, 3), tolerance=0.099).summary.failed == 0

    def test_unknown_family_rejected(self):
        known = re.escape(f"(known: {', '.join(FAMILIES)})")
        with pytest.raises(ValueError, match=known):
            verify_family("petersen")

    def test_as_stated_variant_fails_for_abc4_only(self):
        failing = verify_family(
            "dw", kinds=(IndexKind.ABC4,), n_range=(3, 6), variant=Variant.AS_STATED
        )
        assert failing.summary.passed == 0
        assert all(e.rel_error > 0.10 for e in failing.entries)
        unaffected = verify_family(
            "dw", kinds=(IndexKind.GA,), n_range=(3, 6), variant=Variant.AS_STATED
        )
        assert unaffected.summary.failed == 0


class TestVerifyAll:
    def test_both_families_present_and_passing(self):
        report = verify_all()
        families = [e.family for e in report.entries]
        assert set(families) == {"dw", "hanoi"}
        # dw block comes first, then hanoi
        assert families.index("hanoi") == families.count("dw") == 372
        assert report.summary.failed == 0

    def test_default_ranges(self):
        entries = [(e.family, e.kind, e.n) for e in verify_all().entries]
        expected = [("dw", kind, n) for kind in IndexKind for n in range(3, 65)]
        expected += [
            ("hanoi", kind, n)
            for kind in IndexKind
            for n in range(2 if kind.labeling == "degree" else 3, 9)
        ]
        assert entries == expected
        assert len(entries) == 412

    def test_combine_reports_concatenates(self):
        a = verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 4), include_errata=False)
        b = verify_family("hanoi", kinds=(IndexKind.GA,), n_range=(2, 3), include_errata=False)
        combined = combine_reports([a, b])
        assert len(combined.entries) == 4
        assert combined.summary.total == 4
        assert len(combined.errata) == 3


class TestOraclePath:
    def test_oracle_is_independent_of_closed_forms(self):
        # recompute an entry's oracle value from generators + indices only
        from topoindices import compute_index, hanoi

        report = verify_family("hanoi", kinds=(IndexKind.GA,), n_range=(4, 4))
        entry = report.entries[0]
        assert entry.oracle_value == compute_index(hanoi(4), IndexKind.GA)
        assert brute_force_value("hanoi", IndexKind.GA, 4) == entry.oracle_value

    def test_relative_error_floor(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(2.0, 1.0) == 1.0


class TestErrata:
    def test_three_errata_reported(self):
        errata = errata_report(3)
        assert len(errata) == 3

    def test_formula_discrepancy_evidence(self):
        erratum = errata_report(3)[0]
        ev = erratum.evidence
        assert ev["n"] == 3
        assert ev["as_stated"] == pytest.approx(7.7417, abs=1e-4)
        assert ev["proof_derived"] == pytest.approx(4.5055, abs=1e-4)
        assert ev["oracle"] == pytest.approx(4.5055, abs=1e-4)
        assert relative_error(ev["as_stated"], ev["oracle"]) > 0.10
        assert relative_error(ev["proof_derived"], ev["oracle"]) <= 1e-9

    def test_missing_partition_row_evidence(self):
        erratum = next(e for e in errata_report(3) if "hanoi" in e.location)
        assert erratum.evidence["reconstructed_count"] == (3**4 - 33) // 2 == 24
        assert erratum.evidence["enumerated_count"] == 24

    def test_gap_persists_at_larger_probe(self):
        erratum = errata_report(10)[0]
        ev = erratum.evidence
        assert relative_error(ev["as_stated"], ev["oracle"]) > 0.10

    def test_probe_floor(self):
        with pytest.raises(ValueError):
            errata_report(2)


class TestReportSerialization:
    def test_json_is_deterministic(self):
        a = verify_family("dw", kinds=(IndexKind.ABC,), n_range=(3, 12))
        b = verify_family("dw", kinds=(IndexKind.ABC,), n_range=(3, 12))
        assert a.to_json() == b.to_json()

    def test_json_round_trips(self):
        report = verify_family("hanoi", kinds=(IndexKind.GA5,), n_range=(3, 5))
        parsed = json.loads(report.to_json())
        assert parsed == report.to_dict()
        assert json.dumps(parsed, indent=2) == report.to_json()

    def test_dict_shape(self):
        report = verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 3))
        d = report.to_dict()
        assert set(d) == {"entries", "summary", "errata"}
        entry = d["entries"][0]
        assert set(entry) == {
            "family", "kind", "n", "oracle_value", "closed_value",
            "variant", "rel_error", "pass",
        }
        assert set(d["summary"]) == {"total", "passed", "failed", "max_rel_error"}
        for erratum in d["errata"]:
            assert set(erratum) == {"location", "description", "evidence"}
