import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zal import selberg
from zal.lengthspec import GeodesicClass, GroupSpec, LengthSpectrum, modular_spectrum
from zal.specfun import BudgetExhaustedError

EMPTY = LengthSpectrum(GroupSpec.full(), 2, ())


class TestLocalFactor:
    def test_long_geodesic_is_one(self):
        lf = selberg.local_factor(50.0, 1.0)
        assert abs(lf.value - 1.0) < 1e-20

    def test_self_refinement(self):
        a = selberg.local_factor(1.0, 1.0, 1e-14)
        b = selberg.local_factor(1.0, 1.0, 1e-16)
        assert abs(a.log_value - b.log_value) <= a.tail_bound

    def test_open_unit_interval(self):
        v = selberg.local_factor(0.1, 1.0).value
        assert 0.0 < v < 1.0

    def test_certified_tail_contract(self):
        for (l, s, tol) in [(0.3, 1.5, 1e-8), (2.0, 1.2, 1e-10), (0.05, 3.0, 1e-9)]:
            a = selberg.local_factor(l, s, tol)
            b = selberg.local_factor(l, s, tol / 10)
            assert abs(a.log_value - b.log_value) < a.tail_bound
            assert a.tail_bound <= tol

    @settings(max_examples=40)
    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.05, max_value=2.0))
    def test_monotone_in_s(self, l, s, ds):
        assert selberg.local_factor(l, s + ds, 1e-13).value > \
            selberg.local_factor(l, s, 1e-13).value

    def test_domain(self):
        with pytest.raises(ValueError):
            selberg.local_factor(0.0, 1.0)
        with pytest.raises(ValueError):
            selberg.local_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            selberg.local_factor(1.0, math.inf)
        for tol in (0.0, -1e-12, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                selberg.local_factor(1.0, 1.0, tol)

    def test_depth_beyond_the_work_limit_is_refused(self):
        # K = log(2 / (tol (1 - q))) / l - s is about 4e9; at l = 1e-17,
        # q = e^{-l} rounds to 1 and no K meets the bound
        for l in (1e-8, 1e-17):
            with pytest.raises(BudgetExhaustedError):
                selberg.local_factor(l, 1.0, 1e-10)

    def test_subnormal_tolerance_names_the_underflow(self):
        # tol (1 - q) below 2 / DBL_MAX: the cause is the underflow, not the work limit
        for l, tol in ((1.0, 5e-324), (1.0, 1e-308), (40.0, 1e-309), (1e-15, 5e-324)):
            with pytest.raises(BudgetExhaustedError, match="underflows"):
                selberg.local_factor(l, 1.0, tol)
        assert selberg.local_factor(1.0, 1.0, 1e-300).terms < 1000
        with pytest.raises(BudgetExhaustedError, match="more than"):
            selberg.local_factor(1e-17, 1.0, 1e-10)  # e^-l rounds to 1

    # below about 1e-307, 2 / (tol (1 - q)) overflows and the factor is refused
    @settings(max_examples=100)
    @given(st.floats(min_value=0.05, max_value=40.0),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-300, max_value=1.0))
    def test_solved_depth_meets_the_tolerance(self, l, s, tol):
        assert selberg.local_factor(l, s, tol).tail_bound <= tol


class TestSmallLengthAsymptotic:
    def test_approach_at_s1(self):
        vals = selberg.small_length_asymptotic(1.0, [0.2, 0.1, 0.05, 0.025])
        errs = [abs(v - 2 * math.pi) for v in vals]
        assert all(errs[i] > errs[i + 1] for i in range(3))
        assert abs(vals[2] / (2 * math.pi) - 1) < 0.02

    def test_approach_at_s2(self):
        # the O(l) constant grows with s; approach is still monotone
        v1, v2, v3 = selberg.small_length_asymptotic(2.0, [0.05, 0.02, 0.005])
        errs = [abs(v - 2 * math.pi) for v in (v1, v2, v3)]
        assert errs[0] > errs[1] > errs[2]
        assert abs(v3 / (2 * math.pi) - 1) < 0.01

    def test_rate_is_linear_in_l(self):
        # measured: error ~ 1.05 * l at s = 1
        vals = selberg.small_length_asymptotic(1.0, [0.02, 0.01])
        r = abs(vals[0] - 2 * math.pi) / abs(vals[1] - 2 * math.pi)
        assert 1.7 < r < 2.3


class TestSelbergZeta:
    def test_empty_product(self):
        z = selberg.selberg_zeta(EMPTY, 2.0)
        assert z.log_value == 0.0 and z.value == 1.0
        assert selberg.ruelle_ratio(EMPTY, 2.0) == 1.0

    def test_s_near_one_rejected(self):
        with pytest.raises(selberg.ConvergenceRegionError):
            selberg.selberg_zeta(modular_spectrum(10), 1.0000001)
        for s in (math.inf, math.nan):
            with pytest.raises(selberg.ConvergenceRegionError):
                selberg.selberg_zeta(EMPTY, s)

    def test_self_convergence_under_cutoff_growth(self):
        z40 = selberg.selberg_zeta(modular_spectrum(40), 2.0)
        z80 = selberg.selberg_zeta(modular_spectrum(80), 2.0)
        assert abs(z80.value - z40.value) < 1e-6
        assert z40.tail_estimate > abs(z80.value - z40.value)

    def test_doubling_multiplicities(self):
        sp = modular_spectrum(30)
        dbl = LengthSpectrum(sp.group, sp.max_trace, tuple(
            GeodesicClass(e.trace, e.length, 2 * e.multiplicity) for e in sp.entries))
        assert selberg.selberg_zeta(dbl, 2.0).log_value == pytest.approx(
            2 * selberg.selberg_zeta(sp, 2.0).log_value, abs=1e-14)

    def test_additivity_over_disjoint_union(self):
        sp = modular_spectrum(24)
        half_a = LengthSpectrum(sp.group, sp.max_trace, sp.entries[::2])
        half_b = LengthSpectrum(sp.group, sp.max_trace, sp.entries[1::2])
        total = (selberg.selberg_zeta(half_a, 2.0).log_value
                 + selberg.selberg_zeta(half_b, 2.0).log_value)
        assert total == pytest.approx(
            selberg.selberg_zeta(sp, 2.0).log_value, abs=1e-14)

    def test_certified_tail_contract(self):
        sp = modular_spectrum(30)
        a = selberg.selberg_zeta(sp, 2.0, tol=1e-10)
        b = selberg.selberg_zeta(sp, 2.0, tol=1e-11)
        assert abs(a.log_value - b.log_value) < a.tail_estimate


class TestRuelle:
    def test_algebraic_identity(self):
        sp = modular_spectrum(40)
        r = selberg.ruelle_ratio(sp, 2.0)
        za = selberg.selberg_zeta(sp, 2.0).value
        zb = selberg.selberg_zeta(sp, 3.0).value
        assert r * zb == pytest.approx(za, rel=1e-15)

    def test_self_consistency_under_growth(self):
        r40 = selberg.ruelle_ratio(modular_spectrum(40), 2.0)
        r80 = selberg.ruelle_ratio(modular_spectrum(80), 2.0)
        assert abs(r40 - r80) < 1e-6


def test_convergence_script_smoke():
    script = Path(__file__).parents[1] / "scripts" / "selberg_convergence.py"
    proc = subprocess.run([sys.executable, str(script), "--cutoffs", "20", "40"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "cutoff,classes,log_zeta,tail_estimate,observed_change"
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "40"]
    assert lines[1].endswith(",") and not lines[2].endswith(",")
