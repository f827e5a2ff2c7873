import math
import re

import pytest

from topoindices import (
    IndexKind,
    Variant,
    closed_form,
    compute_index,
    double_wheel,
    dw_closed_form,
    hanoi,
    hanoi_closed_form,
)
from topoindices.closed_forms import FAMILIES

ALL_KINDS = list(IndexKind)
DEGREE_KINDS = [k for k in ALL_KINDS if k.labeling == "degree"]
S_KINDS = [k for k in ALL_KINDS if k.labeling == "neighbor_sum"]


class TestDoubleWheelForms:
    def test_randic_spot_value(self):
        expected = 2 + 6 / math.sqrt(18)
        assert dw_closed_form(IndexKind.RANDIC, 3).value == pytest.approx(expected, rel=1e-12)

    def test_abc4_proof_derived_spot_value(self):
        expected = 0.5 * math.sqrt(22) + 6 * math.sqrt(7 / 54)
        result = dw_closed_form(IndexKind.ABC4, 3, Variant.PROOF_DERIVED)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.value == pytest.approx(4.5054548, abs=1e-6)

    def test_abc4_as_stated_spot_value(self):
        expected = 4 + 6 * math.sqrt(7 / 18)
        result = dw_closed_form(IndexKind.ABC4, 3, Variant.AS_STATED)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.value == pytest.approx(7.7416574, abs=1e-6)

    def test_abc4_as_stated_duplicates_abc(self):
        for n in (3, 8, 40):
            stated = dw_closed_form(IndexKind.ABC4, n, Variant.AS_STATED).value
            abc = dw_closed_form(IndexKind.ABC, n).value
            assert stated == abc

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not IndexKind.ABC4])
    def test_variants_coincide_except_abc4(self, kind):
        for n in (3, 10, 64):
            stated = dw_closed_form(kind, n, Variant.AS_STATED).value
            derived = dw_closed_form(kind, n, Variant.PROOF_DERIVED).value
            assert stated == derived

    def test_rejects_small_n(self):
        for kind in ALL_KINDS:
            with pytest.raises(ValueError):
                dw_closed_form(kind, 2)

    def test_no_exactness_warning(self):
        assert not dw_closed_form(IndexKind.GA, 200).exactness_warning

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_oracle_at_small_n(self, kind):
        for n in (3, 4, 7):
            oracle = compute_index(double_wheel(n), kind)
            value = dw_closed_form(kind, n).value
            assert value == pytest.approx(oracle, rel=1e-12)


class TestHanoiForms:
    def test_randic_spot_value(self):
        expected = math.sqrt(6) + 81 / 6 - 5 / 2
        assert hanoi_closed_form(IndexKind.RANDIC, 3).value == pytest.approx(expected, rel=1e-12)

    def test_abc_spot_value(self):
        expected = 3 * math.sqrt(2) + 22
        assert hanoi_closed_form(IndexKind.ABC, 3).value == pytest.approx(expected, rel=1e-12)

    def test_ga5_spot_value(self):
        expected = 12**1.5 / 7 + 3 + 72 * math.sqrt(2) / 17 + 24
        assert hanoi_closed_form(IndexKind.GA5, 3).value == pytest.approx(expected, rel=1e-12)

    def test_validity_floors(self):
        for kind in DEGREE_KINDS:
            assert FAMILIES["hanoi"].min_n(kind) == 2
            with pytest.raises(ValueError):
                hanoi_closed_form(kind, 1)
        for kind in S_KINDS:
            assert FAMILIES["hanoi"].min_n(kind) == 3
            with pytest.raises(ValueError):
                hanoi_closed_form(kind, 2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_variants_coincide(self, kind):
        n = FAMILIES["hanoi"].min_n(kind)
        assert (
            hanoi_closed_form(kind, n, Variant.AS_STATED).value
            == hanoi_closed_form(kind, n, Variant.PROOF_DERIVED).value
        )

    def test_exactness_warning_threshold(self):
        assert not hanoi_closed_form(IndexKind.RANDIC, 32).exactness_warning
        assert hanoi_closed_form(IndexKind.RANDIC, 33).exactness_warning

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_oracle_at_small_n(self, kind):
        for n in range(FAMILIES["hanoi"].min_n(kind), 6):
            oracle = compute_index(hanoi(n), kind)
            value = hanoi_closed_form(kind, n).value
            assert value == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize(
        "kind",
        [IndexKind.RANDIC, IndexKind.ABC, IndexKind.GA, IndexKind.ABC4, IndexKind.GA5],
    )
    def test_growth_ratio_tends_to_three(self, kind):
        # the dominant term scales like 3**n, so successive increments
        # approach ratio 3
        def value(n):
            return hanoi_closed_form(kind, n).value

        for n in (10, 14, 20):
            ratio = (value(n + 2) - value(n + 1)) / (value(n + 1) - value(n))
            assert ratio == pytest.approx(3.0, abs=1e-6)


class TestDispatch:
    def test_closed_form_routes_by_family(self):
        assert closed_form("dw", IndexKind.GA, 5).family == "dw"
        assert closed_form("hanoi", IndexKind.GA, 5).family == "hanoi"

    def test_unknown_family(self):
        known = re.escape(f"(known: {', '.join(FAMILIES)})")
        with pytest.raises(ValueError, match=f"unknown family 'wheel' {known}"):
            closed_form("wheel", IndexKind.GA, 5)

    def test_result_fields(self):
        r = hanoi_closed_form(IndexKind.ABC, 4)
        assert (r.kind, r.n, r.variant) == (IndexKind.ABC, 4, Variant.PROOF_DERIVED)
        assert math.isfinite(r.value)


class TestInputChecks:
    @pytest.mark.parametrize("form", [dw_closed_form, hanoi_closed_form])
    @pytest.mark.parametrize("n", [True, False, 3.0, 3.5, "3", None])
    def test_rejects_non_int_n(self, form, n):
        with pytest.raises(TypeError, match="n must be an int"):
            form(IndexKind.ABC, n)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hanoi_overflow_is_value_error(self, kind):
        assert math.isfinite(hanoi_closed_form(kind, 645).value)
        for n in (700, 10**6):
            with pytest.raises(ValueError, match=f"hanoi {kind.value} .* overflows a float at n = {n}"):
                hanoi_closed_form(kind, n)

    def test_dw_overflow_is_value_error(self):
        # ga5 raises OverflowError inside the formula; ga comes out as inf
        for kind, n in ((IndexKind.GA5, 10**155), (IndexKind.GA, 10**300)):
            with pytest.raises(ValueError, match=f"dw {kind.value} .* overflows a float"):
                dw_closed_form(kind, n)
        assert math.isfinite(dw_closed_form(IndexKind.GA5, 10**150).value)

    def test_floor_message_names_family_kind_and_n(self):
        with pytest.raises(ValueError, match="dw randic closed form needs n >= 3, got 2"):
            dw_closed_form(IndexKind.RANDIC, 2)
        with pytest.raises(ValueError, match="hanoi ga5 closed form needs n >= 3, got 2"):
            hanoi_closed_form(IndexKind.GA5, 2)
