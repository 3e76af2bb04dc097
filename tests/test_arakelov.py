import math
from fractions import Fraction as F

import pytest

from zal import arakelov as ak
from zal.lengthspec import GroupSpec
from zal.specfun import compute_constants
from zal.tautconst import LOGPI, ONE, ZP1, LogLinearForm, SurfaceType, log_C_form, reduce_form

SC = compute_constants()
L11 = 1.0575992578544577  # level-11 symmetric-square value at the edge (regression)


class TestTrivialBundle:
    def test_unit_norm(self):
        d = ak.adeg_trivial_bundle(1.0, LogLinearForm())
        assert d.numeric == 0.0
        assert d.vector == reduce_form(LogLinearForm())

    def test_c11_vector(self):
        form = log_C_form(SurfaceType(1, 1))
        C = math.exp(form.evaluate(SC))
        d = ak.adeg_trivial_bundle(C, form, constants=SC)
        assert d.vector == reduce_form(form.scale(-2))
        d.check_coherence(SC)
        # raw degree and canonical representative differ by log-2 mass only:
        # reduce drops -2 * (-12) * (-1/36) = -2/3 of a log 2
        assert d.numeric - (-2 * math.log(C)) == pytest.approx(
            (2 / 3) * math.log(2), abs=1e-11)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ak.adeg_trivial_bundle(0.0, LogLinearForm())


class TestLambdaL2:
    def test_gamma0_11_vector(self):
        d = ak.adeg_lambda_L2(GroupSpec.gamma0(11), l_value=L11)
        assert d.vector[LOGPI] == F(2)
        assert dict(d.vector.slots()) == {"L(0,M[gamma0(11)])": F(-1)}
        assert d.numeric == pytest.approx(-math.log(math.pi ** -2 * L11))
        d.check_coherence(SC, {"L(0,M[gamma0(11)])": L11})

    def test_genus_zero_empty(self):
        d = ak.adeg_lambda_L2(GroupSpec.principal2())
        assert d.vector == reduce_form(LogLinearForm())
        assert d.numeric == 0.0

    def test_incoherence_detected(self):
        d = ak.ArithDegree(vector=ak.adeg_lambda_L2(GroupSpec.gamma0(11)).vector,
                           numeric=1.0)
        with pytest.raises(ArithmeticError):
            d.check_coherence(SC, {"L(0,M[gamma0(11)])": L11})


class TestPsiW:
    def test_zero_for_admissible(self):
        assert ak.adeg_psi_W(GroupSpec.gamma0(11)).numeric == 0.0
        assert ak.adeg_psi_W(GroupSpec.gamma1(11)).numeric == 0.0

    def test_extension_flag_for_level2(self):
        d = ak.adeg_psi_W(GroupSpec.principal2())
        assert d.numeric == 0.0
        assert any("extension" in p or "anchor" in p for p in d.provenance)

    def test_13_rejected(self):
        with pytest.raises(ak.HypothesisError):
            ak.adeg_psi_W(GroupSpec.gamma0(13))
        with pytest.raises(ak.HypothesisError):
            ak.self_intersection(GroupSpec.gamma0(13))

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
        from zal.lengthspec import group_invariants
        e = ak.special_value_exponents(GroupSpec.gamma0(23), SC)
        g, n, m = group_invariants(GroupSpec.gamma0(23))
        assert (e.a, e.b, e.c) == ak.closed_form_exponents(g, n, m)
        assert e.c == F(-4 * m, 9)

    @pytest.mark.parametrize("extra", [{"L(0,M[gamma0(11)])": 1}, {"L(0,M[other])": 1}])
    def test_unexpected_slots_rejected(self, extra, monkeypatch):
        spec = GroupSpec.gamma0(11)
        deg = ak.assemble_log_zprime(spec, SC)
        bad = ak.ArithDegree(vector=deg.vector + LogLinearForm(extra), numeric=None)
        monkeypatch.setattr(ak, "assemble_log_zprime", lambda *args: bad)
        with pytest.raises(ArithmeticError, match="L-slot"):
            ak.special_value_exponents(spec, SC)

    def test_ledger_linearity(self):
        # substituting the L-value before or after assembly is the same
        spec = GroupSpec.gamma0(11)
        with_val = ak.assemble_log_zprime(spec, SC, l_value=L11)
        symbolic = ak.assemble_log_zprime(spec, SC)
        assert symbolic.vector == with_val.vector
        assert with_val.numeric == pytest.approx(
            symbolic.vector.evaluate(SC, {"L(0,M[gamma0(11)])": L11}), abs=1e-12)

    def test_coherence_invariant(self):
        for spec in (GroupSpec.principal2(), GroupSpec.gamma1(11)):
            deg = ak.assemble_log_zprime(spec, SC, l_value=L11)
            slot = {f"L(0,M[{spec.label()}])": L11}
            deg.check_coherence(SC, slot if deg.vector.slots() else None, tol=1e-9)


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
