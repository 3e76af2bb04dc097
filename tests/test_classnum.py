"""The class-number route to the spectrum's class counts, against the cycles."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, exp1

from zal import classnum
from zal import lengthspec as ls
from zal import oracles


def _trial_spf(m):
    return next((p for p in range(2, math.isqrt(m) + 1) if m % p == 0), m)


def _l_series_scipy(D, target):
    """Reference: the series with scipy's exp1, as before E1 moved into numpy."""
    n_terms = classnum._terms(D, target / 2)
    spf = classnum.smallest_prime_factors(int(n_terms.max()))
    omega = np.zeros(len(spf), dtype=np.int64)
    m = np.arange(len(spf))
    while (live := m > 1).any():
        omega[live] += 1
        m[live] //= spf[m[live]]
    layers = [np.flatnonzero(omega == k) for k in range(2, int(omega.max()) + 1)]
    value, bound = np.empty(len(D)), np.empty(len(D))
    i = 0
    while i < len(D):
        j, N = i + 1, int(n_terms[i])
        while j < len(D) and (j + 1 - i) * max(N, n_terms[j]) <= classnum._BLOCK_ENTRIES:
            N = max(N, int(n_terms[j]))
            j += 1
        d = D[i:j].astype(float)
        n = np.arange(1, N + 1, dtype=float)
        x = n * np.sqrt(np.pi / d)[:, None]
        a = erfc(x)
        a *= np.sqrt(d)[:, None]
        a /= n
        x *= x
        a += exp1(x, out=x)
        gamma = N * classnum._EPS / (1.0 - N * classnum._EPS)
        bound[i:j] = classnum._tail(d, N) + (classnum._TERM_REL_ERR + gamma) * a.sum(axis=1)
        chi = classnum._characters(D[i:j], N, spf, layers)[:, 1:]
        value[i:j] = (np.multiply(chi, a, out=chi)).sum(axis=1)
        i = j
    return value, bound


def _laguerre_remainder_exact(K, x):
    """(1 + x)/(x L_K(-x)^2) in exact rationals."""
    x = Fraction(x)
    laguerre = sum(math.comb(K, j) * x ** j / math.factorial(j) for j in range(K + 1))
    return (1 + x) / (x * laguerre ** 2)


class TestE1:
    def test_matches_scipy_within_the_stated_bound(self):
        edges = [v for e in (classnum._E1_X0, classnum._E1_X1)
                 for v in (np.nextafter(e, 0), e, np.nextafter(e, np.inf))]
        x = np.concatenate([np.geomspace(1e-8, 60, 3000), edges])
        rel = np.abs(classnum._e1(x) / exp1(x) - 1)
        # scipy's own error: at most 8 eps against mpmath on this grid
        assert rel.max() <= classnum._E1_REL_ERR + 8 * classnum._EPS
        assert classnum._E1_REL_ERR + 708 * 4 * classnum._EPS < classnum._TERM_REL_ERR

    @pytest.mark.parametrize("edge,depth", [("_E1_X0", "_E1_DEEP"), ("_E1_X1", "_E1_SHALLOW")])
    def test_fraction_depth_is_the_least_that_meets_the_truncation(self, edge, depth):
        x, K = getattr(classnum, edge), getattr(classnum, depth)
        exact = _laguerre_remainder_exact(K, x)
        assert float(exact) == pytest.approx(classnum._fraction_remainder(K, x), rel=1e-13)
        assert exact <= Fraction(classnum._E1_TRUNC) < _laguerre_remainder_exact(K - 1, x)

    def test_fraction_bound_holds_at_its_band_edges(self):
        # e^x E1(x) minus the depth-K fraction, against the Gauss-Laguerre bound
        for x, K in ((classnum._E1_X0, classnum._E1_DEEP), (classnum._E1_X1, classnum._E1_SHALLOW)):
            t, w = np.polynomial.laguerre.laggauss(K)
            f = x + 2 * K - 1
            for k in range(K - 1, 0, -1):
                f = x + 2 * k - 1 - k * k / f
            assert 1 / f == pytest.approx((w / (x + t)).sum(), rel=1e-13)
            gap_bound = float(_laguerre_remainder_exact(K, x)) / (1 + x)  # 1/(x L_K(-x)^2)
            assert 0 <= math.exp(x) * exp1(x) - 1 / f <= gap_bound + 1e-15


class TestClassCounts:
    def test_smallest_prime_factors(self):
        spf = classnum.smallest_prime_factors(3000)
        assert spf[0] == spf[1] == 0
        assert [int(x) for x in spf[2:]] == [_trial_spf(m) for m in range(2, 3001)]

    def test_series_is_class_number_times_regulator(self):
        # h+(D) log eps+(D) = sqrt(D) L(1, chi_D), with h+ the number of
        # cycles of primitive reduced forms and eps+ from pell_fundamental
        fund = [D for D in range(5, 2000) if oracles.is_discriminant(D)
                and not any(D % (f * f) == 0 and oracles.is_discriminant(D // (f * f))
                            for f in range(2, math.isqrt(D) + 1))]
        value, bound = classnum._l_series(np.array(fund), np.full(len(fund), 1e-10))
        for D, v, b in zip(fund, value, bound):
            h = len(oracles.form_cycles([f for f in oracles.reduced_forms(D) if math.gcd(*f) == 1], D))
            T, U = oracles.pell_fundamental(D)
            assert 0 < b < 1e-9
            assert abs(v - h * math.log((T + U * math.sqrt(D)) / 2)) <= b + 1e-12 * v, D

    def test_formula_counts_equal_cycle_counts_to_640(self):
        table = classnum.ClassCounts()
        rows = table.upto(640)
        assert table.fallbacks == 0
        for t in range(3, 641):
            assert rows[t] == oracles._cycle_counts(t), t

    def test_counts_to_2000_are_certified_to_an_eighth(self):
        # each series is summed only as far as its roundings need
        table = classnum.ClassCounts()
        table.upto(2000)
        assert table.fallbacks == 0
        assert 0 < table.max_err <= 1 / 8

    def test_terms_are_the_least_that_meet_the_tail(self):
        D = np.array([5, 8, 12, 1997, 200_000, 200_000])
        tail = np.array([1e-3, 1e-9, 0.5, 1e-2, 1e-2, 1e-12])
        N = classnum._terms(D, tail)
        assert (N >= 1).all() and (classnum._tail(D, N) <= tail).all()
        assert ((N == 1) | (classnum._tail(D, N - 1) > tail)).all()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(5, 9_000_000), st.floats(1e-4, 1.0)),
                    min_size=1, max_size=12))
    @example([(5, 1.0), (5, 1e-4), (8, 1.0), (8, 1e-4), (5, 0.25), (8, 0.5)])
    def test_terms_from_the_closed_form_bracket_are_the_least(self, rows):
        D = np.array([d for d, _ in rows])
        tail = np.array([t for _, t in rows])
        N = classnum._terms(D, tail)
        assert (N >= 1).all() and (classnum._tail(D, N) <= tail).all()
        assert ((N == 1) | (classnum._tail(D, N - 1) > tail)).all()

    @pytest.mark.parametrize("T", [12, 20, 40, 130, 466])
    def test_series_and_counts_match_the_scipy_reference(self, T, monkeypatch):
        calls = []
        series = classnum._l_series

        def recorded(D, target):
            calls.append((D, target))
            return series(D, target)

        monkeypatch.setattr(classnum, "_l_series", recorded)
        rows = classnum.ClassCounts().upto(T)
        for D, target in calls:
            value, bound = series(D, target)
            want, want_bound = _l_series_scipy(D, target)
            assert (np.abs(value - want) <= bound + want_bound).all()
            assert np.allclose(bound, want_bound, rtol=1e-12, atol=0)
        monkeypatch.setattr(classnum, "_l_series", _l_series_scipy)
        assert rows == classnum.ClassCounts().upto(T)

    def test_bands_fill_like_one_pass(self):
        banded = classnum.ClassCounts()
        banded.upto(40)
        banded.upto(39)
        assert banded.upto(300) == classnum.ClassCounts().upto(300)

    def test_chebyshev_primitivity_matches_pell(self):
        steps = classnum._power_steps(2000)
        pairs = 0
        for t in range(3, 2001):
            D = t * t - 4
            for u in range(1, math.isqrt(D) + 1):
                if D % (u * u) or not oracles.is_discriminant(D // (u * u)):
                    continue
                pairs += 1
                assert classnum._is_fundamental(t, u, steps) == \
                    (oracles.pell_fundamental(D // (u * u)) == (t, u)), (t, u)
        assert pairs == 4205

    def test_uncertified_rounding_falls_back_to_cycles(self, monkeypatch):
        want = classnum.ClassCounts().upto(80)
        monkeypatch.setattr(classnum, "_TERM_REL_ERR", 1e6)
        forced = classnum.ClassCounts()
        assert forced.upto(80) == want
        assert forced.fallbacks == 78

    def test_spectrum_reads_the_shared_table(self, monkeypatch):
        monkeypatch.setattr(classnum, "CLASS_COUNTS", classnum.ClassCounts())
        sp = ls.modular_spectrum(50)
        assert len(classnum.CLASS_COUNTS.rows) == 51
        assert {e.trace: e.multiplicity for e in sp.entries} == oracles.word_class_counts(50)

    def test_lengthspec_import_loads_no_numpy(self):
        # commands that never count a spectrum, theoremB among them,
        # must not pay for numpy and scipy, nor for the oracles
        src = str(Path(classnum.__file__).parents[1])
        code = ("import sys, zal.lengthspec; "
                "sys.exit('numpy' in sys.modules or 'zal.oracles' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                              timeout=60).returncode == 0
