"""The class-number route to the spectrum's class counts, against the cycles."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from zal import classnum
from zal import lengthspec as ls
from zal import oracles


def _trial_spf(m):
    return next((p for p in range(2, math.isqrt(m) + 1) if m % p == 0), m)


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
