import itertools
import math
import time

import numpy as np
import pytest

from zal import specfun as sf
from zal.cli import main
from zal.verify import run_check


BUDGET = sf.PrecisionBudget(abs_tol=1e-12)


def direct_sum_zeta(s: float, n_terms: int = 10 ** 6) -> float:
    """Independent oracle: sorted partial sum plus integral-tail correction."""
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = float(np.sum(np.sort(n ** -s)))
    N = n_terms + 0.5  # midpoint tail: int_{N}^inf x^-s dx is accurate to O(N^-s-2)
    return partial + N ** (1 - s) / (s - 1)


class TestRiemannZeta:
    def test_zeta2_classical(self):
        assert sf.riemann_zeta(2.0, BUDGET) == pytest.approx(math.pi ** 2 / 6, abs=1e-14)

    def test_zeta3_against_direct_sum(self):
        oracle = direct_sum_zeta(3.0)
        assert sf.riemann_zeta(3.0, BUDGET) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    def test_partial_sum_consistency(self, s):
        oracle = direct_sum_zeta(s, 200_000)
        assert abs(sf.riemann_zeta(s, BUDGET) - oracle) < 1e-10

    def test_pole(self):
        with pytest.raises(sf.PoleError):
            sf.riemann_zeta(1.0, BUDGET)

    def test_critical_strip_rejected(self):
        with pytest.raises(sf.DomainError):
            sf.riemann_zeta(0.5, BUDGET)

    def test_nan_and_minus_inf_are_outside_the_domain(self):
        for s in (math.nan, -math.inf):
            with pytest.raises(sf.DomainError):
                sf.riemann_zeta(s, BUDGET)

    # 0.5, nan and -inf are refused in the two tests above
    @pytest.mark.parametrize("s", [-1.0, 0.0, -2.0, -171.7, math.inf])
    def test_only_s_above_one_is_evaluated(self, s):
        with pytest.raises(sf.DomainError):
            sf.riemann_zeta(s, BUDGET)

    def test_budget_exhaustion(self):
        # the remainder falls like n^-(s+17): 1e-300 needs n near 1e16, and
        # the cutoff is refused before any term is summed
        for s in (1.5, 2.0):
            start = time.perf_counter()
            with pytest.raises(sf.BudgetExhaustedError):
                sf.riemann_zeta(s, sf.PrecisionBudget(abs_tol=1e-300))
            assert time.perf_counter() - start < 0.5


def doubling_em_hurwitz(s, a, n_start, abs_tol, max_terms=10_000_000, n_corr=8):
    """The earlier Euler-Maclaurin loop, kept as a reference: it re-sums
    the head and every correction at each doubling of the cutoff."""
    sigma = s.real
    n = n_start
    while True:
        if n > max_terms:
            raise sf.BudgetExhaustedError("Euler-Maclaurin cutoff exceeded max_terms")
        head = 0.0 + 0.0j
        for k in range(n):
            head += (k + a) ** (-s)
        na = n + a
        tail = na ** (1 - s) / (s - 1) + 0.5 * na ** (-s)
        poch = s
        fact = 2.0
        corr = 0.0 + 0.0j
        term_abs = 0.0
        for j in range(1, n_corr + 2):
            term = sf._BERN_FLOAT[j - 1] / fact * poch * na ** (-s - 2 * j + 1)
            term_abs = abs(term)
            if j <= n_corr:
                corr += term
            else:
                break
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            fact *= (2 * j + 1) * (2 * j + 2)
        bound = term_abs * abs(s + 2 * n_corr + 1) / (sigma + 2 * n_corr + 1)
        if bound <= abs_tol:
            return head + tail + corr, bound
        n *= 2


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 2 + 1e-7j, -1.0, 1.3, 7.25])
def test_em_hurwitz_matches_the_doubling_loop(s):
    s = complex(s)
    for a, n_start, abs_tol in itertools.product(
            (1.0, 0.5, 1.0 / 3.0), (8, 64), (1e-6, 1e-12, 1e-14, 1e-20)):
        got = sf._em_hurwitz(s, a, n_start, sf.PrecisionBudget(abs_tol=abs_tol))
        assert got == doubling_em_hurwitz(s, a, n_start, abs_tol), (a, n_start, abs_tol)


class TestHurwitz:
    def test_a_equals_one(self):
        assert sf.hurwitz_zeta(2.0, 1.0, BUDGET) == pytest.approx(
            sf.riemann_zeta(2.0, BUDGET), abs=1e-14)

    def test_half_relation_s2(self):
        assert sf.hurwitz_zeta(2.0, 0.5, BUDGET) == pytest.approx(
            math.pi ** 2 / 2, abs=1e-13)

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
    def test_half_relation(self, s):
        lhs = sf.hurwitz_zeta(s, 0.5, BUDGET)
        rhs = (2 ** s - 1) * sf.riemann_zeta(s, BUDGET)
        assert abs(lhs - rhs) < 1e-12

    def test_bernoulli_oracle_at_minus1(self):
        # zeta(-1, a) = -B_2(a)/2 with B_2(a) = a^2 - a + 1/6
        a = 1.0 / 3.0
        oracle = -(a * a - a + 1.0 / 6.0) / 2.0
        assert sf.hurwitz_zeta(-1.0, a, BUDGET) == pytest.approx(oracle, abs=1e-13)

    def test_domain(self):
        with pytest.raises(sf.PoleError):
            sf.hurwitz_zeta(1.0, 0.5, BUDGET)
        with pytest.raises(sf.DomainError):
            sf.hurwitz_zeta(2.0, -1.0, BUDGET)

    @pytest.mark.parametrize("s,a", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
                                     (3.0, math.inf), (3.0, math.nan)])
    def test_non_finite_arguments_refused(self, s, a):
        # refused before the Euler-Maclaurin sum, not reported as a work limit
        with pytest.raises(sf.DomainError):
            sf.hurwitz_zeta(s, a, BUDGET)


class TestZetaPrime:
    def test_dual_routes_agree(self):
        zp, gap = sf.zeta_prime_minus1(BUDGET)
        r1, r2 = sf._zeta_prime_fe_route(BUDGET), sf._zeta_prime_glaisher_route(BUDGET)
        assert (zp, gap) == (0.5 * (r1 + r2), abs(r1 - r2))
        assert gap < 2e-12

    def test_sign(self):
        assert sf.zeta_prime_minus1(BUDGET)[0] < 0

    def test_voros_ratio(self):
        zp, _ = sf.zeta_prime_minus1(BUDGET)
        g2 = math.exp(sf.log_barnes_gamma2_half(sf.PrecisionBudget(abs_tol=1e-10)))
        ratio = math.exp(zp) / (2 ** (-1 / 36) * math.pi ** (1 / 6) * g2 ** (-2 / 3))
        assert abs(ratio - 1.0) < 1e-10


@pytest.mark.parametrize("report", [
    lambda: main(["specfun", "check"]),
    lambda: run_check("voros_identity"),
], ids=["specfun_check", "voros_identity"])
def test_each_zeta_prime_route_runs_once_per_report(report, monkeypatch, capsys):
    calls = []

    def counted(name):
        route = getattr(sf, name)

        def call(budget):
            calls.append(name)
            return route(budget)
        return call

    for name in ("_zeta_prime_fe_route", "_zeta_prime_glaisher_route"):
        monkeypatch.setattr(sf, name, counted(name))
    report()
    assert sorted(calls) == ["_zeta_prime_fe_route", "_zeta_prime_glaisher_route"]


class TestBarnesGamma2:
    def test_positive(self):
        # Gamma2(1/2) = 1/G(1/2), G(1/2) = 0.603244281209446206191 (mpmath.barnesg)
        g2 = math.exp(sf.log_barnes_gamma2_half(BUDGET))
        assert g2 > 0
        assert g2 == pytest.approx(1 / 0.603244281209446206191, rel=1e-12)

    def test_voros_residual(self):
        budget = sf.PrecisionBudget(abs_tol=1e-10)
        zp, _ = sf.zeta_prime_minus1(budget)
        lg = sf.log_barnes_gamma2_half(budget)
        assert sf.voros_residual(zp, lg) < 1e-9

    def test_closed_form_inversion(self):
        # algebraic inversion of the cross-check identity
        zp, _ = sf.zeta_prime_minus1(BUDGET)
        want = -1.5 * zp - math.log(2) / 24 + math.log(math.pi) / 4
        assert sf.log_barnes_gamma2_half(BUDGET) == pytest.approx(want, abs=1e-12)


class TestSpecialConstants:
    def test_construction_validates(self):
        sc = sf.compute_constants()
        assert sf.voros_residual(sc.zeta_prime_minus1, sc.log_gamma2_half) < 1e-11

    def test_bad_constants_rejected(self):
        with pytest.raises(sf.BudgetExhaustedError):
            sf.SpecialConstants(zeta_prime_minus1=-0.165, log_gamma2_half=0.505)


def test_budget_validation():
    with pytest.raises(sf.DomainError):
        sf.PrecisionBudget(abs_tol=0.0)
    with pytest.raises(sf.DomainError):
        sf.PrecisionBudget(abs_tol=math.inf)
    with pytest.raises(sf.DomainError):
        sf.PrecisionBudget(abs_tol=math.nan)
