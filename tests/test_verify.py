import ast
import inspect
import json
import re
import textwrap
import tracemalloc

import pytest

from topoindices import (
    Graph,
    IndexKind,
    Variant,
    combine_reports,
    compute_index,
    double_wheel,
    errata_report,
    relative_error,
    verify_all,
    verify_family,
)
from topoindices import closed_forms, verify
from topoindices.closed_forms import FAMILIES
from topoindices.partition import EdgePartition


DW_CLOSED_FORM_SOURCE = textwrap.dedent(inspect.getsource(closed_forms.dw_closed_form))


def dw_closed_form_with_as_stated_constant_bumped(index: int | None):
    """``dw_closed_form`` recompiled from its source with the ``index``-th
    number of the as-stated abc4 line raised by 1 (``None``: unchanged),
    and how many numbers that line has."""
    tree = ast.parse(DW_CLOSED_FORM_SOURCE)
    as_stated = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "variant is Variant.AS_STATED"
    )
    numbers = [node for node in ast.walk(as_stated.body[0]) if isinstance(node, ast.Constant)]
    if index is not None:
        numbers[index].value += 1
    namespace = dict(vars(closed_forms))
    exec(compile(tree, "<dw_closed_form>", "exec"), namespace)
    return namespace["dw_closed_form"], len(numbers)


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
        order = {kind: i for i, kind in enumerate(IndexKind)}
        for kinds in (None, tuple(reversed(IndexKind))):
            report = verify_family("dw", kinds=kinds, n_range=(3, 5))
            keys = [(e.kind, e.n) for e in report.entries]
            assert keys == sorted(keys, key=lambda t: (order[t[0]], t[1]))
            assert len(keys) == 6 * 3

    @pytest.mark.parametrize("kinds", [("abc",), (IndexKind.ABC, "ga")], ids=["name", "mixed"])
    def test_kinds_must_be_index_kinds(self, kinds):
        # A name instead of a member must not yield an empty, passing report.
        with pytest.raises(TypeError, match="kind must be an IndexKind member"):
            verify_family("dw", kinds=kinds, n_range=(3, 4))

    def test_kinds_from_a_generator_are_read_once(self):
        kinds = (kind for kind in (IndexKind.GA, IndexKind.ABC))
        report = verify_family("dw", kinds=kinds, n_range=(3, 4))
        assert [(e.kind, e.n) for e in report.entries] == [
            (IndexKind.ABC, 3),
            (IndexKind.ABC, 4),
            (IndexKind.GA, 3),
            (IndexKind.GA, 4),
        ]

    @pytest.mark.parametrize("kinds", [(), iter(())], ids=["tuple", "exhausted"])
    def test_no_kinds_rejected(self, kinds):
        # An empty selection must not yield an empty, passing report.
        with pytest.raises(ValueError, match="no kinds to verify"):
            verify_family("dw", kinds=kinds, n_range=(3, 4))

    def test_variant_must_be_a_variant(self):
        # A name must not check the proof-derived form in place of the stated one.
        with pytest.raises(TypeError, match="variant must be a Variant member"):
            verify_family("dw", kinds=(IndexKind.ABC4,), n_range=(3, 3), variant="as_stated")

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

    def test_dw_range_beyond_generator_cap_rejected(self):
        cap = FAMILIES["dw"].max_n
        with pytest.raises(ValueError, match=f"dw generator size cap is n <= {cap}"):
            verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, cap + 1))

    def test_holds_one_graph_at_a_time(self, monkeypatch):
        held: list[int] = []

        class Counted(Graph):
            __slots__ = ()

            def __del__(self):
                held.pop()

        def build(n):
            assert held == [], f"dw({n}) built while dw{held} is still held"
            held.append(n)
            g = double_wheel(n)
            return Counted(g.vertex_count, g.edges())

        monkeypatch.setattr(closed_forms, "double_wheel", build)
        report = verify_family("dw", kinds=(IndexKind.RANDIC, IndexKind.GA), n_range=(3, 40))
        assert report.summary.total == 2 * 38
        assert held == []

    def test_bad_tolerance_rejected(self):
        # 0.9 would pass the as-stated abc4, whose error is at least 0.718;
        # no tolerance can be passed, so it fails at DEFAULT_TOLERANCE
        for tolerance in (0.0, 0.1, 0.9):
            with pytest.raises(TypeError, match="tolerance"):
                verify_family("dw", n_range=(3, 4), tolerance=tolerance)
        stated = verify_family(
            "dw", kinds=(IndexKind.ABC4,), n_range=(3, 3), variant=Variant.AS_STATED
        )
        assert stated.summary.failed == 1

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
        a = verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 4))
        b = verify_family("hanoi", kinds=(IndexKind.GA,), n_range=(2, 3))
        combined = combine_reports([a, b])
        assert len(combined.entries) == 4
        assert combined.summary.total == 4
        assert len(combined.errata) == 3

    def test_combine_reports_reuses_agreeing_errata(self):
        # errata that agree are taken as they are, not recomputed
        erratum = verify.Erratum("somewhere", "something", {"n": 3})
        a = verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 3))._replace(errata=(erratum,))
        b = verify_family("hanoi", kinds=(IndexKind.GA,), n_range=(2, 2))._replace(errata=(erratum,))
        assert combine_reports([a, b]).errata == (erratum,)

    def test_combine_reports_keeps_the_first_errata(self):
        # every report carries the same errata, so a later input's are not compared
        a = verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 3))
        expected = tuple(errata_report())
        assert a.errata == expected
        assert combine_reports([a, a._replace(errata=())]).errata == expected
        assert combine_reports([a._replace(errata=()), a]).errata == ()
        empty = combine_reports([])
        assert (empty.entries, empty.summary.total, empty.errata) == ((), 0, expected)


class TestOraclePath:
    def test_oracle_is_independent_of_closed_forms(self):
        # recompute an entry's oracle value from generators + indices only
        from topoindices import hanoi

        report = verify_family("hanoi", kinds=(IndexKind.GA,), n_range=(4, 4))
        entry = report.entries[0]
        assert entry.oracle_value == compute_index(hanoi(4), IndexKind.GA)

    def test_relative_error_floor(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(2.0, 1.0) == 1.0


class TestErrata:
    def test_three_errata_reported(self):
        errata = errata_report()
        assert len(errata) == 3

    def test_formula_discrepancy_evidence(self):
        erratum = errata_report()[0]
        ev = erratum.evidence
        assert ev["n"] == 3
        assert ev["as_stated"] == pytest.approx(7.7417, abs=1e-4)
        assert ev["proof_derived"] == pytest.approx(4.5055, abs=1e-4)
        assert ev["oracle"] == pytest.approx(4.5055, abs=1e-4)
        assert relative_error(ev["as_stated"], ev["oracle"]) > 0.10
        assert relative_error(ev["proof_derived"], ev["oracle"]) <= 1e-9

    def test_missing_partition_row_evidence(self):
        erratum = next(e for e in errata_report() if "hanoi" in e.location)
        assert erratum.evidence["reconstructed_count"] == (3**4 - 33) // 2 == 24
        assert erratum.evidence["enumerated_count"] == 24

    @pytest.mark.parametrize("n_probe", [3, 10])
    def test_abc4_evidence_is_the_reports_check(self, monkeypatch, n_probe):
        # The erratum and the verify report share one check, so its evidence
        # is bit for bit what verify_family reports for each variant.
        monkeypatch.setattr(verify, "_PROBE_N", n_probe)
        ev = errata_report()[0].evidence
        assert ev["n"] == n_probe
        (stated,), (derived,) = (
            verify_family(
                "dw", kinds=(IndexKind.ABC4,), n_range=(n_probe, n_probe), variant=variant
            ).entries
            for variant in (Variant.AS_STATED, Variant.PROOF_DERIVED)
        )
        assert ev["as_stated"].hex() == stated.closed_value.hex()
        assert ev["proof_derived"].hex() == derived.closed_value.hex()
        assert ev["oracle"].hex() == derived.oracle_value.hex() == stated.oracle_value.hex()

    @pytest.mark.parametrize("n_probe", [3, 5])
    @pytest.mark.parametrize("wrong_size", [0, 1])
    def test_hanoi_erratum_needs_the_count_at_two_sizes(self, monkeypatch, n_probe, wrong_size):
        # the reconstructed count is affine in 3**n, so it is checked at
        # n_probe and n_probe + 1; a count off at either drops the erratum
        wrong = (n_probe, n_probe + 1)[wrong_size]
        partition = verify.neighbor_sum_partition

        def miscounted(g):
            p = partition(g)
            if g.vertex_count == 3**wrong:
                p.classes[(9, 9)] += 1
            return p

        locations = [e.location for e in errata_report()]
        monkeypatch.setattr(verify, "_PROBE_N", n_probe)
        monkeypatch.setattr(verify, "neighbor_sum_partition", miscounted)
        errata = errata_report()
        assert "hanoi neighbor-sum edge partition table" in locations
        assert [e.location for e in errata] == [
            loc for loc in locations if not loc.startswith("hanoi")
        ]

    def test_hanoi_erratum_evidence_is_from_n_probe(self, monkeypatch):
        seen: list[int] = []

        def recorded(g):
            seen.append(g.vertex_count)
            return EdgePartition("neighbor_sum", {(9, 9): (3 * g.vertex_count - 33) // 2})

        monkeypatch.setattr(verify, "_PROBE_N", 5)
        monkeypatch.setattr(verify, "neighbor_sum_partition", recorded)
        erratum = next(e for e in errata_report() if "hanoi" in e.location)
        assert seen == [3**5, 3**6]
        assert erratum.evidence == {"n": 5, "reconstructed_count": 348, "enumerated_count": 348}

    def test_abc4_erratum_needs_the_stated_form_to_duplicate_abc(self, monkeypatch):
        # every number of the as-stated line, raised by 1, drops the erratum:
        # the formula would still be wrong, but no longer the abc form
        unchanged, count = dw_closed_form_with_as_stated_constant_bumped(None)
        assert count == 6  # 4 * n / 3 + 2 * n * math.sqrt((1 + 2 * n) / (6 * n))
        monkeypatch.setattr(closed_forms, "dw_closed_form", unchanged)
        assert errata_report()[0].location.startswith("double-wheel abc4 closed form")
        for index in range(count):
            mutant, _ = dw_closed_form_with_as_stated_constant_bumped(index)
            monkeypatch.setattr(closed_forms, "dw_closed_form", mutant)
            stated = mutant(IndexKind.ABC4, 3, Variant.AS_STATED)
            oracle = compute_index(double_wheel(3), IndexKind.ABC4)
            assert relative_error(stated.value, oracle) > 0.1
            locations = [e.location for e in errata_report()]
            assert not any(loc.startswith("double-wheel abc4 closed form") for loc in locations)
            assert len(locations) == 2

    @pytest.mark.parametrize("miss, fires", [(1e-3, True), (1e-8, True), (0.0, False)])
    def test_abc4_erratum_decides_at_the_check_tolerance(self, monkeypatch, miss, fires):
        # The abc form and the stated abc4 form, equal bit for bit, miss brute
        # force by `miss`; the proof-derived form is left alone. The erratum
        # fires exactly when the stated form fails at DEFAULT_TOLERANCE.
        original = closed_forms.dw_closed_form
        oracle = compute_index(double_wheel(3), IndexKind.ABC4)
        missed = oracle * (1 + miss)

        def duplicate_near_miss(kind, n, variant=Variant.PROOF_DERIVED):
            result = original(kind, n, variant)
            stated_abc4 = kind is IndexKind.ABC4 and variant is Variant.AS_STATED
            if n == 3 and (kind is IndexKind.ABC or stated_abc4):
                return result._replace(value=missed)
            return result

        monkeypatch.setattr(closed_forms, "dw_closed_form", duplicate_near_miss)
        errata = errata_report()
        assert len(errata) == (3 if fires else 2)
        assert errata[0].location.startswith("double-wheel abc4 closed form") is fires
        if fires:
            assert errata[0].evidence == {
                "n": 3,
                "as_stated": missed,
                "proof_derived": original(IndexKind.ABC4, 3).value,
                "oracle": oracle,
            }

    def test_gap_persists_at_larger_probe(self):
        (entry,) = verify_family(
            "dw", kinds=(IndexKind.ABC4,), n_range=(10, 10), variant=Variant.AS_STATED
        ).entries
        assert entry.rel_error > 0.1


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

    @pytest.mark.parametrize(
        "make",
        [
            verify_all,
            lambda: combine_reports([]),
            lambda: verify_family("dw", kinds=(IndexKind.GA,), n_range=(3, 3)),
        ],
        ids=["verify_all", "no_entries", "one_entry"],
    )
    @pytest.mark.parametrize("batch", [1, 7, verify._JSON_BATCH])
    def test_json_equals_json_dumps(self, monkeypatch, make, batch):
        report = make()
        monkeypatch.setattr(verify, "_JSON_BATCH", batch)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    def test_json_peak_memory_is_bounded(self):
        # json.dumps with an indent holds every encoder chunk in one list, about
        # 7.8 times the text's length on the default report; to_json's batches
        # keep it near 3 times
        report = verify_all()
        tracemalloc.start()
        try:
            text = report.to_json()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

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
