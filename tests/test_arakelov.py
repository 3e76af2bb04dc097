import math
from fractions import Fraction as F

import pytest

from zal import arakelov as ak
from zal.lengthspec import GroupSpec, group_invariants
from zal.specfun import compute_constants
from zal.tautconst import LOGG2, LOGPI, ONE, ZP1, LogLinearForm

SC = compute_constants()
L11 = 1.0575992578544577  # level-11 symmetric-square value at the edge (regression)


class TestLambdaL2:
    def test_gamma0_11_vector(self):
        v = ak.lambda_L2_form(GroupSpec.gamma0(11))
        assert v == LogLinearForm({LOGPI: 2, "L(0,M[gamma0(11)])": -1})
        assert v.evaluate(SC, {"L(0,M[gamma0(11)])": L11}) == pytest.approx(
            -math.log(math.pi ** -2 * L11))

    def test_genus_zero_empty(self):
        assert ak.lambda_L2_form(GroupSpec.principal2()) == LogLinearForm()


class TestPsiW:
    def test_zero_for_admissible(self):
        # the guard admits these groups, and with psi_W = 0 the vector has the closed forms
        for spec in (GroupSpec.gamma0(11), GroupSpec.gamma1(11)):
            vec = ak.assemble_log_zprime(spec)
            want = ak.closed_form_exponents(*group_invariants(spec))
            assert (vec[ONE], vec[LOGPI], vec[LOGG2]) == want

    def test_13_rejected(self):
        with pytest.raises(ak.HypothesisError):
            ak.assemble_log_zprime(GroupSpec.gamma0(13))

    def test_ledger_checks_hypotheses_before_the_surface_type(self):
        # Gamma0(13) has genus 0 and two cusps, an unstable surface type
        with pytest.raises(ak.HypothesisError, match="gamma0\\(13\\)"):
            ak.special_value_exponents(GroupSpec.gamma0(13), SC)


class TestSelfIntersection:
    def test_gamma0_11_preform(self):
        f = ak.self_intersection_form(GroupSpec.gamma0(11))
        assert f == LogLinearForm({ZP1: F(96), ONE: F(-4)})

    def test_principal2_preform(self):
        f = ak.self_intersection_form(GroupSpec.principal2())
        assert f == LogLinearForm({ZP1: F(48), ONE: F(-2)})

    @pytest.mark.parametrize("spec", [GroupSpec.principal2(), GroupSpec.gamma0(11),
                                      GroupSpec.gamma1(11)])
    def test_numeric_negative(self, spec):
        assert ak.self_intersection_form(spec).evaluate(SC) < 0


class TestAssembly:
    def test_anchor_exact(self):
        e = ak.special_value_exponents(GroupSpec.principal2(), SC)
        assert (e.b, e.c) == (F(5, 3), F(-8, 3))
        assert e.a == 0 and e.l_exponent == 0

    def test_gamma0_11(self):
        e = ak.special_value_exponents(GroupSpec.gamma0(11), SC)
        assert (e.a, e.b, e.c) == (F(0), F(-2, 3), F(-16, 3))
        assert e.l_exponent == 1

    def test_gamma1_11(self):
        e = ak.special_value_exponents(GroupSpec.gamma1(11), SC)
        assert (e.a, e.b, e.c) == (F(0), F(14, 3), F(-80, 3))
        assert e.l_exponent == 1

    def test_closed_forms_match_anchor(self):
        assert ak.closed_form_exponents(0, 3, 6) == (F(0), F(5, 3), F(-8, 3))

    def test_other_admissible_levels(self):
        # p = 23 = 11 mod 12: exponents computable without an L-value
        e = ak.special_value_exponents(GroupSpec.gamma0(23), SC)
        g, n, m = group_invariants(GroupSpec.gamma0(23))
        assert (e.a, e.b, e.c) == ak.closed_form_exponents(g, n, m)
        assert e.c == F(-4 * m, 9)

    @pytest.mark.parametrize("extra", [{"L(0,M[gamma0(11)])": 1}, {"L(0,M[other])": 1}])
    def test_unexpected_slots_rejected(self, extra, monkeypatch):
        spec = GroupSpec.gamma0(11)
        bad = ak.assemble_log_zprime(spec) + LogLinearForm(extra)
        monkeypatch.setattr(ak, "assemble_log_zprime", lambda *args: bad)
        with pytest.raises(ArithmeticError, match="L-slot"):
            ak.special_value_exponents(spec, SC)

    def test_ledger_linearity(self):
        # the L-value enters the log linearly, through the slot's exponent 1
        slot = "L(0,M[gamma0(11)])"
        vec = ak.assemble_log_zprime(GroupSpec.gamma0(11))
        assert vec.evaluate(SC, {slot: L11}) - vec.evaluate(SC, {slot: 1.0}) == pytest.approx(
            math.log(L11), abs=1e-12)

    def test_coherence_invariant(self):
        # two routes to Z'(1): the closed-form exponents, and the ledger vector;
        # any positive L fills the slot the same way on both
        for spec in (GroupSpec.principal2(), GroupSpec.gamma0(11),
                     GroupSpec.gamma1(11), GroupSpec.gamma0(23)):
            slot = {f"L(0,M[{spec.label()}])": L11}
            v, _ = ak.predict_zprime(spec, SC, l_value=L11)
            w = math.exp(ak.assemble_log_zprime(spec).evaluate(SC, slot))
            assert v == pytest.approx(w, rel=1e-13), spec.label()


class TestPrediction:
    def test_anchor_value(self):
        v, caveats = ak.predict_zprime(GroupSpec.principal2(), SC)
        expected = math.pi ** (5 / 3) * math.exp(SC.log_gamma2_half) ** (-8 / 3)
        assert v == pytest.approx(expected, rel=1e-13)
        # times 4 is the exact closed-form special value of the level-2 group
        assert 4 * v == pytest.approx(7.00312183147, rel=1e-9)
        assert any("algebraic" in c for c in caveats)

    def test_gamma0_11_with_supplied_l(self):
        v, _ = ak.predict_zprime(GroupSpec.gamma0(11), SC, l_value=L11)
        e = ak.special_value_exponents(GroupSpec.gamma0(11), SC)
        manual = math.exp(float(e.a) + float(e.b) * SC.log_pi
                          + float(e.c) * SC.log_gamma2_half) * L11
        assert v == pytest.approx(manual, rel=1e-13)
        assert v > 0

    def test_exponent_signs(self):
        for spec in (GroupSpec.principal2(), GroupSpec.gamma0(11),
                     GroupSpec.gamma1(11), GroupSpec.gamma0(23)):
            e = ak.special_value_exponents(spec, SC)
            assert e.c < 0

    def test_missing_l_value(self):
        with pytest.raises(ValueError):
            ak.predict_zprime(GroupSpec.gamma0(23), SC)
