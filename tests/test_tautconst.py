import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zal import tautconst as tc
from zal.specfun import compute_constants

SC = compute_constants()

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=36)


def random_form(c1, c2, c3, c4, le):
    return tc.LogLinearForm({tc.ONE: c1, tc.LOG2: c2, tc.LOGPI: c3, tc.ZP1: c4, "L": le})


class TestSurfaceType:
    def test_stability(self):
        with pytest.raises(tc.StabilityError):
            tc.SurfaceType(0, 2)
        with pytest.raises(tc.StabilityError):
            tc.SurfaceType(1, 0)
        assert tc.SurfaceType(0, 3).kappa == 1


class TestConstC:
    def test_kappa_one_form(self):
        _, form = tc.const_C(tc.SurfaceType(1, 1), SC)
        assert form == tc.LogLinearForm({tc.ONE: F(1, 2), tc.ZP1: F(-12)})

    def test_numeric_matches_form(self):
        val, form = tc.const_C(tc.SurfaceType(2, 0), SC)
        assert abs(val - math.exp(form.evaluate(SC))) < 1e-12 * val

    def test_clutching_relation_2_3(self):
        c_merge, _ = tc.const_C(tc.SurfaceType(5, 0), SC)
        c, _ = tc.const_C(tc.SurfaceType(2, 3), SC)
        c11, _ = tc.const_C(tc.SurfaceType(1, 1), SC)
        assert abs(c_merge / (c * c11 ** 3) - 1) < 1e-12


class TestConstE:
    def test_clutching_relation_1_2(self):
        e_merge, _ = tc.const_E(tc.SurfaceType(3, 0), SC)
        e, _ = tc.const_E(tc.SurfaceType(1, 2), SC)
        e11, _ = tc.const_E(tc.SurfaceType(1, 1), SC)
        assert abs(e_merge / (math.pi ** 2 * e * e11 ** 2) - 1) < 1e-12

    @pytest.mark.parametrize("g,n", [(0, 3), (1, 1)])
    def test_numeric_matches_form(self, g, n):
        val, form = tc.const_E(tc.SurfaceType(g, n), SC)
        assert abs(val - math.exp(form.evaluate(SC))) < 1e-12 * val


def test_relations_full_grid_exact_and_numeric():
    for g in range(5):
        for n in range(1, 6):
            if 2 * g - 2 + n <= 0:
                continue
            t, t0, t11 = (tc.SurfaceType(g, n), tc.SurfaceType(g + n, 0),
                          tc.SurfaceType(1, 1))
            c, cf = tc.const_C(t, SC)
            c0, c0f = tc.const_C(t0, SC)
            c11, c11f = tc.const_C(t11, SC)
            assert c0f == cf + c11f.scale(n)
            assert abs(c0 / (c * c11 ** n) - 1) < 1e-12
            e, ef = tc.const_E(t, SC)
            e0, e0f = tc.const_E(t0, SC)
            e11, e11f = tc.const_E(t11, SC)
            assert e0f == ef + e11f.scale(n) + tc.LogLinearForm({tc.LOGPI: F(n)})
            assert abs(e0 / (math.pi ** n * e * e11 ** n) - 1) < 1e-12


class TestReduce:
    def test_pure_zeta_prime(self):
        v = tc.reduce_form(tc.LogLinearForm({tc.ZP1: F(1)}))
        assert v == tc.LogLinearForm({tc.LOGPI: F(1, 6), tc.LOGG2: F(-2, 3)})

    def test_pure_log2_dies(self):
        v = tc.reduce_form(tc.LogLinearForm({tc.LOG2: F(7, 3)}))
        assert v == tc.LogLinearForm()

    def test_log_C11(self):
        v = tc.reduce_form(tc.log_C_form(tc.SurfaceType(1, 1)))
        assert (v[tc.ONE], v[tc.LOGPI], v[tc.LOGG2]) == (F(1, 2), F(-2), F(8))

    @settings(max_examples=60)
    @given(rationals, rationals, rationals, rationals, rationals,
           rationals, rationals, rationals, rationals, rationals)
    def test_linearity(self, a1, a2, a3, a4, a5, b1, b2, b3, b4, b5):
        x = random_form(a1, a2, a3, a4, a5)
        y = random_form(b1, b2, b3, b4, b5)
        assert tc.reduce_form(x + y) == tc.reduce_form(x) + tc.reduce_form(y)

    @settings(max_examples=60)
    @given(rationals, rationals, rationals, rationals, rationals)
    def test_idempotent_with_log2_and_zeta_prime_gone(self, a1, a2, a3, a4, le):
        v = tc.reduce_form(random_form(a1, a2, a3, a4, le))
        assert tc.reduce_form(v) == v
        assert v[tc.LOG2] == 0 and v[tc.ZP1] == 0
        assert v["L"] == le

    def test_zero_coordinate_not_stored(self):
        assert tc.LogLinearForm({tc.ONE: 0}) == tc.LogLinearForm()
        assert tc.LogLinearForm({tc.ONE: 0, "L": F(0)}).terms == ()
        assert (tc.LogLinearForm({tc.ZP1: 1}) + tc.LogLinearForm({tc.ZP1: -1})).terms == ()

    @settings(max_examples=40)
    @given(rationals, rationals, rationals, rationals, rationals)
    def test_reduction_shifts_value_by_log2_mass_only(self, a1, a2, a3, a4, le):
        # reduce changes the value exactly by the dropped log-2 content:
        # the explicit coefficient plus the -1/36 hidden inside zeta'(-1)
        form = random_form(a1, a2, a3, a4, le)
        slot = {"L": 1.37}
        dropped = float(a2 - a4 / F(36)) * math.log(2)
        assert tc.reduce_form(form).evaluate(SC, slot) == pytest.approx(
            form.evaluate(SC, slot) - dropped, abs=1e-11)


def test_form_numeric_coherence_grid():
    for g in range(5):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
                continue
            t = tc.SurfaceType(g, n)
            for val, form in (tc.const_C(t, SC), tc.const_E(t, SC)):
                assert abs(math.exp(form.evaluate(SC)) - val) <= 1e-11 * val


@settings(max_examples=40)
@given(rationals, rationals, rationals, rationals, rationals)
def test_evaluate_sums_basis_then_slots(c1, c2, c3, c4, le):
    # the order 1, log 2, log pi, zeta'(-1), then slots keeps reports bit-stable
    form = random_form(c1, c2, c3, c4, le)
    want = (float(c1) + float(c2) * math.log(2.0) + float(c3) * SC.log_pi
            + float(c4) * SC.zeta_prime_minus1)
    want += float(le) * math.log(1.37)
    assert form.evaluate(SC, {"L": 1.37}) == want


def test_missing_slot_value_raises():
    form = tc.LogLinearForm({"L": F(1)})
    with pytest.raises(KeyError):
        form.evaluate(SC)
