import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zal import modforms as mf
from zal.lengthspec import _is_prime


F600 = mf.eta_product_qexp(600)
F8000 = mf.eta_product_qexp(8000)
GOOD_PRIMES_8000 = [ell for ell in range(2, 8000) if ell != 11 and _is_prime(ell)]


class TestEtaProduct:
    def test_normalized(self):
        assert F600.a(1) == 1

    def test_leading_coefficients(self):
        # a_2 .. a_15 of the level-11 eigenform
        assert F600.coeffs[1:15] == (-2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1)

    def test_level_eigenvalue(self):
        assert F600.a(11) == 1

    def test_multiplicativity_below_500(self):
        f = mf.eta_product_qexp(500)
        for m in range(2, 23):
            for n in range(2, 500 // m + 1):
                if gcd(m, n) == 1:
                    assert f.a(m * n) == f.a(m) * f.a(n)

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=2, max_value=24))
    def test_multiplicativity_property(self, m, n):
        if gcd(m, n) == 1:
            assert F600.a(m * n) == F600.a(m) * F600.a(n)

    def test_hecke_recursion_at_prime_powers(self):
        for p in (2, 3, 5, 7, 13):
            for k in range(2, 5):
                if p ** (k + 1) > 600:
                    continue
                assert F600.a(p ** (k + 1)) == \
                    F600.a(p) * F600.a(p ** k) - p * F600.a(p ** (k - 1))

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            mf.QExpansion(level=11, coeffs=(2, 1))

    def test_every_coefficient_matches_dense_product(self):
        assert mf.eta_product_qexp(2000).coeffs == _dense_eta_product(2000, {1: 2, 11: 2})

    def test_int64_guard(self, monkeypatch):
        # eta(z)^40: exact at q^100, where coefficients reach 5.5e16; by q^2000
        # the guard's bound max|series| * len(terms) passes 2^63
        monkeypatch.setattr(mf, "_ETA_EXPONENTS", {1: 40})
        mf.eta_product_qexp.cache_clear()
        try:
            assert mf.eta_product_qexp(100).coeffs == _dense_eta_product(100, {1: 40})
            with pytest.raises(OverflowError):
                mf.eta_product_qexp(2000)
        finally:
            mf.eta_product_qexp.cache_clear()


def _dense_eta_product(N, exponents):
    """Reference: prod_d prod_{k < N} (1 - q^{dk})^{e_d} up to q^{N-1}, in Python ints."""
    c = [1] + [0] * (N - 1)
    for d, e in exponents.items():
        for k in range(d, N, d):
            for _ in range(e):
                c = c[:k] + [c[n] - c[n - k] for n in range(k, N)]
    return tuple(c)


class TestPointCounting:
    def test_cross_oracle_below_8000(self):
        assert mf.frobenius_traces(7999) == {ell: F8000.a(ell) for ell in GOOD_PRIMES_8000}

    def test_hasse_bound(self):
        for ell, a in mf.frobenius_traces(120).items():
            assert a * a <= 4 * ell

    def test_hasse_bound_whole_table(self):
        assert len(GOOD_PRIMES_8000) == 1006
        for ell in GOOD_PRIMES_8000:
            assert F8000.a(ell) ** 2 <= 4 * ell, ell

    def test_bad_prime_rejected(self):
        with pytest.raises(mf.BadPrimeError):
            mf.point_count_ap(11)

    def test_composite_rejected(self):
        with pytest.raises(mf.BadPrimeError):
            mf.point_count_ap(15)

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 101, 499, 997])
    def test_counting_routes_agree(self, ell):
        assert mf.point_count_ap(ell) == _exhaustive_ap(ell)


def _exhaustive_ap(ell):
    """a_ell from a count of every (x, y) in F_ell^2 on the model."""
    a1, a2, a3, a4, a6 = mf.WEIERSTRASS
    count = 1  # infinity
    for x in range(ell):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y) % ell == rhs:
                count += 1
    return ell + 1 - count


@pytest.fixture(scope="module")
def pet():
    return mf.petersson_norm(F600, tol=1e-8)


@pytest.fixture(scope="module")
def sym():
    return mf.newform_sym2(11)


@pytest.fixture(scope="module")
def hida(sym, pet):
    return mf.hida_ratio(sym, pet)


class TestPetersson:
    def test_positive_with_small_error(self, pet):
        assert pet.value > 0
        assert pet.est_error < 1e-8

    def test_mesh_refinement_stability(self, pet):
        from zal.modforms import _petersson_quadrature
        coeffs = np.array(F600.coeffs[:400], dtype=float)
        a = _petersson_quadrature(coeffs, panels=4, order=12, y_split=1.25)
        b = _petersson_quadrature(coeffs, panels=8, order=16, y_split=1.25)
        assert abs(a - b) <= max(pet.est_error, 1e-12)

    def test_split_height_independence(self, pet):
        from zal.modforms import _petersson_quadrature
        coeffs = np.array(F600.coeffs[:400], dtype=float)
        alt = _petersson_quadrature(coeffs, panels=8, order=16, y_split=1.6)
        assert alt == pytest.approx(pet.value, abs=1e-10)

    def test_vectorised_mesh_matches_node_loop(self):
        # reference: the per-node double loop the vectorised rule replaced
        from zal.modforms import (_gauss_nodes, _parseval_tail, _petersson_quadrature,
                                  _strip_integrand)
        coeffs = np.array(F600.coeffs[:120], dtype=float)
        panels, order, y_split = 3, 8, 1.25
        total = 0.0
        for i in range(panels):
            a = -0.5 + i / panels
            xs, wx = _gauss_nodes(a, a + 1.0 / panels, order)
            for j, x in enumerate(xs):
                y0 = math.sqrt(max(1.0 - x * x, 0.0))
                ys, wy = _gauss_nodes(y0, y_split, order)
                vals = np.array([_strip_integrand(coeffs, np.array([x]), y)[0] for y in ys])
                total += wx[j] * float(np.dot(wy, vals))
        total += _parseval_tail(coeffs, y_split)
        got = _petersson_quadrature(coeffs, panels, order, y_split)
        assert abs(got - total) <= 1e-13 * total

    def test_zero_form_integrates_to_zero(self):
        from zal.modforms import _parseval_tail, _strip_integrand
        zero = np.zeros(50)
        assert _parseval_tail(zero, 1.25) == 0.0
        assert np.all(_strip_integrand(zero, np.array([0.1]), 1.0) == 0.0)

    def test_fricke_eigenvalue(self, pet):
        assert pet.al_sign == -1

    def test_wrong_level_rejected(self):
        fake = mf.QExpansion(level=7, coeffs=(1, -1))
        with pytest.raises(ValueError):
            mf.petersson_norm(fake)


class TestSym2Local:
    def test_deligne_exact_whole_table(self):
        # (1 - l x)(1 - (a^2 - 2l) x + l^2 x^2): the quadratic's discriminant is
        # a^2 (a^2 - 4l) <= 0, so its roots are conjugate with product l^2 and
        # every reciprocal root has modulus l exactly
        for ell in GOOD_PRIMES_8000:
            a = F8000.a(ell)
            q1, q2 = -(a * a - 2 * ell), ell * ell
            assert q1 * q1 - 4 * q2 <= 0, ell
            assert mf.sym2_local_poly(ell, a) == \
                (1, q1 - ell, q2 - ell * q1, -ell * q2), ell

    def test_hasse_sanity_band_at_edge(self):
        # local factor value at the edge stays in the coarse Hasse band
        for ell in (2, 3, 5, 7, 13, 101):
            x = ell ** -2.0
            val = sum(c * x ** k for k, c in enumerate(mf.sym2_local_poly(ell, F600.a(ell))))
            band = (1 + 4 / math.sqrt(ell)) ** 3
            assert 1 / band <= abs(1 / val) <= band


class TestSym2LValue:
    def test_positive_value(self, sym):
        assert sym.value > 0

    def test_value_unchanged_by_batched_scoring(self, sym):
        # L(2, Sym^2 f) at 8000 terms from the per-hypothesis evaluation
        # that preceded the one-pass scoring
        assert (sym.conductor, sym.bad_beta, sym.sign, sym.rejected) == (121, 1, 1, 19)
        assert abs(sym.value - 1.0575992578544562) <= sym.est_error

    def test_winner_separated_from_runner_up(self):
        from zal.modforms import _score_hypotheses
        scored = _score_hypotheses(mf.eta_product_qexp(8000), 2.0, 8000)
        assert len(scored) == 20
        assert [r[0] for r in scored] == sorted(r[0] for r in scored)
        assert 100 * scored[0][0] <= scored[1][0]

    def test_hypotheses_are_read_from_the_form_level(self):
        from zal.modforms import _score_hypotheses
        f = mf.QExpansion(level=13, coeffs=mf.eta_product_qexp(200).coeffs)
        scored = _score_hypotheses(f, 2.0, 200)
        assert len(scored) == 20
        assert {r[1] for r in scored} == {13, 169}
        assert {r[2] for r in scored} == {None, 1, -1, 13, -13}
        assert len({r[1:4] for r in scored}) == 20

    @pytest.mark.parametrize("f,n_terms", [
        (mf.QExpansion(level=11, coeffs=(1, 5, 7, 9)), 3900),
        (F600, 601),
        (mf.QExpansion(level=15, coeffs=F600.coeffs), 600),
        (mf.QExpansion(level=1, coeffs=F600.coeffs), 600),
    ], ids=["bogus-form-too-short", "eta-one-short", "composite-level", "level-1"])
    def test_form_that_cannot_carry_the_search_is_refused(self, f, n_terms):
        with pytest.raises(ValueError, match="need a prime level"):
            mf.sym2_L_value(f, n_terms=n_terms)

    @pytest.mark.parametrize("tol,n_terms", [
        (math.nan, 600), (0.0, 600), (-1.0, 600), (math.inf, 600), (1e-6, 0), (1e-6, -5),
    ])
    def test_arguments_outside_the_domain_are_refused_before_any_coefficient(
            self, tol, n_terms, monkeypatch):
        from zal.specfun import DomainError

        def unbuilt(*args):
            raise AssertionError("coefficients built for a refused argument")

        monkeypatch.setattr(mf, "_sym2_coeff_rows", unbuilt)
        with pytest.raises(DomainError, match="need 0 < tol < inf and n_terms >= 1"):
            mf.sym2_L_value(F600, tol=tol, n_terms=n_terms)

    def test_newform_lookup_by_level(self, sym):
        assert mf.newform_sym2(23) is None
        assert mf.newform_sym2(11) is sym
        assert (sym.conductor, sym.bad_beta, sym.sign) == (121, 1, 1)

    def test_coeff_rows_match_per_beta_builder(self):
        from zal.modforms import _bad_roots, _sym2_coeff_rows
        N = 8000
        f = mf.eta_product_qexp(N)
        rows = _sym2_coeff_rows(f, N, _bad_roots(11))
        for row, beta in zip(rows, _bad_roots(11)):
            want = _per_beta_coeffs(f, N, beta)
            assert np.array_equal(row[1:], want[1:]), beta

    def test_batched_moments_match_plain_sums(self):
        from zal.modforms import _bad_roots, _contour, _dirichlet_moments, _sym2_coeff_rows
        N = 500
        cs = _sym2_coeff_rows(mf.eta_product_qexp(N), N, _bad_roots(11))
        s0s = (2.0, 1.0)
        got = _dirichlet_moments(cs, s0s)
        z, _ = _contour()
        n = np.arange(1, N + 1, dtype=float)
        for k, s0 in enumerate(s0s):
            for r, c in enumerate(cs):
                want = np.array([np.sum(c[1:] * n ** (-s0 - zj)) for zj in z])
                assert np.max(np.abs(got[k, r] - want)) <= 1e-12 * np.max(np.abs(want))

    # the blocks are the reference's 4096 rows of n; the kernel reads all N at once
    @pytest.mark.parametrize("N", [3895, 8000], ids=["3895_one_block", "8000_two_blocks"])
    def test_factored_moments_near_full_exp(self, N):
        """Two-table moments: near n^{-z} exponentiated on every column, mirrored to the bit.

        With u = 2^-53, a_n = |c_n| n^{-s0-c} and Sigma = sum_n a_n, the
        two kernels differ in two ways, and the bound is their sum.

        * Terms.  Both read the same float L = log n, whose rounding
          moves both phases alike.  The full exp rounds tau_j L once, the
          factored kernel tau_{bq} L and tau_k L once each, with tau_j =
          tau_{bq} + tau_k: the phases differ by at most 2 u tau_j L.
          The full exp's modulus exp(-c L) carries the rounding of L and
          of c L, 2 u c L, where the factored one reads n^{-s0-c} from
          one pow.  Beyond these arguments each kernel takes three
          function values (pow, exp or a second phase, a cos-sin pair)
          and three real or complex products, each within 3 u: 18 u per
          kernel.  So term n differs by at most
          u a_n (36 + 2 (c + tau_max) log n).
        * Sums.  Each real component of a moment is summed by BLAS over
          at most 4N roundings (products and additions, in an order it
          chooses), each at most u times a partial sum, so at most
          u Sigma.  As independent mean-zero errors (Higham and Mary,
          SIAM J. Sci. Comput. 41, 2019), the Azuma-Hoeffding inequality
          bounds their total by lam sqrt(4N) u Sigma except with
          probability 2 exp(-lam^2 / 2): 5e-11 at lam = 7, below 1e-6
          over the 2 x 9000 sums compared here.  A complex moment
          adds sqrt 2, and the two kernels a factor 2:
          4 sqrt(2) lam sqrt(N) u Sigma.

        The terms part is below 40 u Sigma: a_n is dominated by its first
        terms, where log n is small.  The sums part is 2.5e3 u Sigma at
        3895 terms; BLAS accumulates in blocks from zero, so the
        measured difference is about 25 u Sigma.
        """
        from zal.modforms import (_C_LINE, _TAU_MAX, _bad_roots, _contour,
                                  _dirichlet_moments, _sym2_coeff_rows)
        cs = _sym2_coeff_rows(mf.eta_product_qexp(N), N, _bad_roots(11))
        s0s = (2.0, 1.0)
        got = _dirichlet_moments(cs, s0s)
        want = _full_exp_moments(cs, s0s)
        u, lam = 2.0 ** -53, 7.0
        n = np.arange(1, N + 1, dtype=float)
        a = np.abs(cs[None, :, 1:]) * n ** -(np.array(s0s)[:, None, None] + _C_LINE)
        terms = np.sum(a * (36 + 2 * (_C_LINE + _TAU_MAX) * np.log(n)), axis=-1)
        sums = 4 * math.sqrt(2) * lam * math.sqrt(N) * np.sum(a, axis=-1)
        assert np.all(np.abs(got - want) <= u * (terms + sums)[..., None])
        h = len(_contour()[0]) // 2  # D at -tau_j is conj D at tau_j, to the bit
        assert np.array_equal(got[..., :h].view(np.float64),
                              np.conjugate(got[..., :h:-1]).view(np.float64))

    @pytest.mark.parametrize("N", [3850, 3895, 3950, 8000])
    def test_search_unchanged_from_full_exp_moments(self, N, monkeypatch):
        # the residual |Lambda_X - Lambda_2X| / |Lambda_X| is a difference
        # of contour sums with condition number ~1e7, so moments that
        # differ by rounding move it by ~1e-9 (measured up to 9.6e-10 with
        # two BLAS threads, 4.9e-10 with one); the value moves by ~1e-10
        from zal.modforms import _score_hypotheses
        f = mf.eta_product_qexp(N)
        got = _score_hypotheses(f, 2.0, N)
        got_sym = mf.sym2_L_value(f, n_terms=N)
        monkeypatch.setattr(mf, "_dirichlet_moments",
                            _full_exp_moments)
        want = _score_hypotheses(f, 2.0, N)
        want_sym = mf.sym2_L_value(f, n_terms=N)
        assert [r[1:4] for r in got] == [r[1:4] for r in want]
        assert (got_sym.conductor, got_sym.bad_beta, got_sym.sign) == (121, 1, 1)
        assert got_sym.rejected == want_sym.rejected == 19
        assert abs(got_sym.value - want_sym.value) <= 1e-9 * want_sym.value
        assert abs(got_sym.fe_residual - want_sym.fe_residual) <= 2e-9

    @pytest.mark.parametrize("N", [3850, 3895, 3950, 8000])
    def test_contraction_matches_per_pair_kernels(self, N, monkeypatch):
        # the same moments against kernels rebuilt whole per (conductor,
        # cutoff): only the rounding of the kernel products differs, which
        # the 1e7-conditioned contour sum lifts to ~1e-10 (measured up to
        # 1.7e-11 in the value and 4.0e-10 in the winner's residual)
        from zal.modforms import _score_hypotheses
        f = mf.eta_product_qexp(N)
        got = _score_hypotheses(f, 2.0, N)
        got_sym = mf.sym2_L_value(f, n_terms=N)
        want = _per_pair_scores(f, 2.0, N)
        monkeypatch.setattr(mf, "_score_hypotheses", _per_pair_scores)
        want_sym = mf.sym2_L_value(f, n_terms=N)
        assert [r[1:4] for r in got] == [r[1:4] for r in want]
        assert (got_sym.conductor, got_sym.bad_beta, got_sym.sign) == (121, 1, 1)
        assert got_sym.rejected == want_sym.rejected == 19
        assert abs(got_sym.value - want_sym.value) <= 1e-9 * want_sym.value
        assert abs(got_sym.fe_residual - want_sym.fe_residual) <= 2e-9

    def test_gamma_factor_built_once_per_s0(self, monkeypatch):
        # two contour-sized evaluations, at s and 3 - s, and the scalar
        # gamma(s) that turns Lambda into L
        sizes = []
        gamma = mf._gamma_completed

        def counted(s):
            sizes.append(np.size(s))
            return gamma(s)

        monkeypatch.setattr(mf, "_gamma_completed", counted)
        mf.sym2_L_value(mf.eta_product_qexp(8000))
        assert sorted(sizes) == [1, mf._N_TAU, mf._N_TAU]

    def test_contour_is_the_linspace_grid_and_exactly_mirrored(self):
        from zal.modforms import _N_TAU, _TAU_MAX, _contour
        z, w = _contour()
        tau = np.linspace(-_TAU_MAX, _TAU_MAX, _N_TAU)
        assert np.array_equal(z.imag.view(np.int64), tau.view(np.int64))
        assert np.array_equal(z.view(np.float64), np.conjugate(z[::-1]).view(np.float64))
        assert np.all(z.real == 3.5) and z.imag[_N_TAU // 2] == 0.0
        assert np.all(w[1:-1] == tau[1] - tau[0]) and w[0] == w[-1] == (tau[1] - tau[0]) / 2

    def test_unique_hypothesis(self, sym):
        assert sym.rejected == 19
        assert sym.conductor == 121
        assert sym.bad_beta == 1
        assert sym.sign == 1

    def test_fe_residual(self, sym):
        assert sym.fe_residual < 1e-6

    def test_afe_matches_direct_sum_in_convergence_region(self, sym):
        # deep in absolute convergence the smoothed evaluation must meet
        # the plain partial sum; far-from-center points pay a slowly
        # decaying reflected tail, so the comparison uses growing X
        from zal.modforms import (_SIGNS, _dirichlet_moments, _gamma_completed, _lambdas,
                                  _sym2_coeff_rows)
        f = mf.eta_product_qexp(8000)
        c = _sym2_coeff_rows(f, 8000, (sym.bad_beta,))[0]
        direct = mf.dirichlet_direct(f, 4.0, 8000, sym.bad_beta)
        gam = (sym.conductor ** 2.0
               * _gamma_completed(np.array([4.0 + 0j]))[0]).real
        d = _dirichlet_moments(c, (4.0, -1.0))
        lams = _lambdas(d, 4.0, (sym.conductor,), (2.0, 4.0, 8.0))
        rels = [abs(lam / gam - direct) / direct
                for lam in lams[0, :, 0, _SIGNS.index(sym.sign)]]
        assert rels[0] > rels[1] > rels[2] or rels[2] < 1e-5
        assert rels[1] < 1e-4


def _full_exp_moments(cs, s0s):
    """Reference: the moments with n^{-z} exponentiated on every contour column,
    in blocks of 4096 rows of n."""
    chunk = 4096
    z, _ = mf._contour()
    s0 = np.asarray(s0s, dtype=float)[:, None, None]
    out = np.zeros((len(s0s) * len(cs), len(z)), dtype=complex)
    for i0 in range(1, cs.shape[1], chunk):
        n = np.arange(i0, min(i0 + chunk, cs.shape[1]), dtype=float)
        block = np.exp(np.outer(-np.log(n), z))
        rows = cs[None, :, i0:i0 + len(n)] * n ** -s0
        out += rows.reshape(len(out), len(n)) @ block
    return out.reshape(len(s0s), len(cs), len(z))


def _per_pair_scores(f, s, n_terms):
    """Reference: the search with the whole kernel rebuilt per (conductor, cutoff)
    and one pair of contour dots per hypothesis and cutoff."""
    z, w = mf._contour()

    def kern(s1, cond, x):
        return (cond ** ((s1 + z) / 2) * mf._gamma_completed(s1 + z)
                * np.exp(z * z) * x ** z / z) * w / (2 * np.pi)

    bad = mf._bad_roots(f.level)
    moments = mf._dirichlet_moments(mf._sym2_coeff_rows(f, n_terms, bad), (s, 3.0 - s))
    results = []
    for cond in (f.level, f.level ** 2):
        k1, k2 = [(kern(s, cond, X), kern(3.0 - s, cond, 1.0 / X)) for X in (1.0, 2.0)]
        for b, beta in enumerate(bad):
            d = moments[:, b]
            for w_sign in (1, -1):
                l1, l2 = [float((d[0] @ k[0]).real + w_sign * (d[1] @ k[1]).real)
                          for k in (k1, k2)]
                results.append((abs(l1 - l2) / max(abs(l1), 1e-300), cond, beta, w_sign, l1))
    results.sort(key=lambda r: r[0])
    return results


def _per_beta_coeffs(f, N, bad_beta):
    """Reference: the multiplicative fill run separately for one bad factor."""
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, N + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    c = np.zeros(N + 1)
    c[1] = 1.0
    powers = {}
    for p in range(2, N + 1):
        if spf[p] != p:
            continue
        kmax = int(math.log(N) / math.log(p)) + 1
        if p == f.level:
            beta = 0 if bad_beta is None else bad_beta
            powers[p] = [float(beta) ** k for k in range(kmax + 1)]
            continue
        e1 = f.a(p) ** 2 - p
        e2 = p * e1
        e3 = p ** 3
        seq = [1.0, float(e1), float(e1 * e1 - e2)]
        while len(seq) < kmax + 1:
            seq.append(e1 * seq[-1] - e2 * seq[-2] + e3 * seq[-3])
        powers[p] = seq
    for n in range(2, N + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        c[n] = powers[p][k] * c[m]
    return c


class TestRationalReconstruction:
    def test_exact_rational_found(self):
        assert mf.reconstruct_rational(8 / 11 + 2e-9, 1e-7) == Fraction(8, 11)

    def test_generic_real_rejected(self):
        assert mf.reconstruct_rational(math.pi / 4, 1e-7) is None

    def test_denominator_bound(self):
        x = 12345 / 99991  # denominator just below 1e5
        assert mf.reconstruct_rational(x, 1e-12) is None

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=9000))
    def test_planted_rationals(self, p, q):
        x = p / q + 3e-10
        got = mf.reconstruct_rational(x, 1e-8)
        assert got == Fraction(p, q).limit_denominator(10_000) or got is None \
            or got == Fraction(p, q)
        if Fraction(p, q).denominator < 1000:
            assert got == Fraction(p, q)


class TestHida:
    def test_finite_positive(self, hida):
        assert hida.ratio > 0 and math.isfinite(hida.ratio)

    def test_rational_found(self, hida):
        assert hida.rational_guess is not None
        assert hida.rational_guess.denominator <= 10_000
        assert hida.combined_error < 1e-6

    def test_results_are_python_floats(self, sym, hida):
        assert [type(x) for x in (sym.value, sym.est_error, hida.ratio,
                                  hida.combined_error)] == [float] * 4

    def test_negative_control(self, hida):
        perturbed = hida.l_value / (math.pi ** 3 * hida.petersson * (1 + 1e-3))
        assert mf.reconstruct_rational(perturbed, 10 * hida.combined_error) is None


def test_coefficients_csv_format():
    text = mf.coefficients_csv(mf.eta_product_qexp(5))
    assert text == "n,a_n\n1,1\n2,-2\n3,-1\n4,2\n5,1\n"
