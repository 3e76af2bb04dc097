"""Newform pipeline: q-expansions, point counts, Petersson norm, symmetric-square L.

The one modeled newform is 11a, the unique normalized weight-2
eigenform of level 11.  Its coefficients come two independent ways:

* the eta product q prod (1-q^k)^2 (1-q^{11k})^2, read from the exponent
  table {1: 2, 11: 2} of prod_d eta(d z)^{e_d} and expanded with exact
  integer arithmetic, one sparse pentagonal-number multiply per factor;
* counting points on the fixed conductor-11 Weierstrass model

      y^2 + y = x^3 - x^2 - 10 x - 20

  over F_ell, giving a_ell = ell + 1 - #E(F_ell).

Agreement of the two is the module's central cross-oracle property.

The Petersson square norm <f,f> = int |f|^2 dx dy over a level-11
fundamental domain is computed by folding the twelve coset translates of
the standard modular domain through the Fricke involution
f(-1/(11 z)) = eps * 11 z^2 f(z), which turns every evaluation into a
rapidly convergent q-series at Im >= sqrt(3)/22; the region above a
split height is integrated in closed form via Parseval.  The exponent
table, the point count and this quadrature rest on 11a itself.

L(s, Sym^2 f) is evaluated at the form's prime level N through a
smoothed (contour-Mellin) approximate functional equation for

    Lambda(s) = Q^{s/2} GammaC(s) GammaR(s) L(s),  Lambda(s) = w Lambda(3-s),

with the conductor Q in {N, N^2}, the sign w and the local Euler factor
at N (none, or reciprocal root +-1 or +-N) selected by a self-consistency
search: a hypothesis is kept only if the evaluation is independent of
the smoothing cutoff (Dokchitser's test, Experiment. Math. 13, 2004).
At level 11 the winning hypothesis is unique at desk tolerance.

All 20 hypotheses are scored from one pass over n.  The contour sum
factors as

    sum_j K_j(Q, s0, X) D_j(s0),   D_j(s0) = sum_n c_n n^{-s0-z_j},

where the closed-form kernel K carries the conductor and the cutoff and
the Dirichlet moments D depend only on the bad factor and on s0 in
{s, 3-s}.  The 5 x 2 moment rows come from one pass over n:
n^{-z} splits into the real modulus n^{-c}, folded into the rows, and
a phase that is the product of two small tables, one per coarse and
one per fine step of tau.  Only the tau >= 0 half is summed; the other
half is its conjugate.  The archimedean part of K is built once per
s0, and one contraction per s0 scores every hypothesis at both cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np
from scipy.special import gamma as _cgamma

from .classnum import smallest_prime_factors
from .lengthspec import _is_prime
from .specfun import DomainError

__all__ = [
    "QExpansion",
    "PeterssonResult",
    "Sym2Result",
    "HidaResult",
    "eta_product_qexp",
    "point_count_ap",
    "frobenius_traces",
    "dirichlet_direct",
    "petersson_norm",
    "sym2_L_value",
    "newform_sym2",
    "hida_ratio",
    "reconstruct_rational",
    "sym2_local_poly",
    "coefficients_csv",
]

LEVEL = 11  # of 11a: the eta exponent table, the point count and the Petersson quadrature
WEIERSTRASS = (0, -1, 1, -10, -20)  # a1, a2, a3, a4, a6 of the model above
_N_TERMS = 8000  # q-expansion and Sym^2 Dirichlet-series truncation of the L-value


class BadPrimeError(ValueError):
    """Point counting requested at the bad prime or a non-prime."""


class NoHypothesisError(ArithmeticError):
    """No unique Sym^2 hypothesis: none, or more than one, scored below the
    search's tolerance."""


@dataclass(frozen=True)
class QExpansion:
    level: int
    coeffs: tuple[int, ...]  # a_1 .. a_N

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("expansion must be normalized: a_1 = 1")

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def a(self, n: int) -> int:
        return self.coeffs[n - 1]


def _pentagonal_terms(N: int, step: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of prod_k (1 - q^{step*k}) up to q^N: by Euler's
    pentagonal theorem, step * j(3j - 1)/2 and step * j(3j + 1)/2 carry (-1)^j."""
    out = [(0, 1)]
    j = 1
    while step * j * (3 * j - 1) // 2 <= N:
        for e in (step * j * (3 * j - 1) // 2, step * j * (3 * j + 1) // 2):
            if e <= N:
                out.append((e, (-1) ** j))
        j += 1
    return out


# 11a = eta(z)^2 eta(11 z)^2 as {d: e_d} of prod_d eta(d z)^{e_d}; e_d > 0
_ETA_EXPONENTS = {1: 2, LEVEL: 2}


@lru_cache(maxsize=4)
def eta_product_qexp(N: int) -> QExpansion:
    """Exact coefficients a_1..a_N of 11a = q prod_d prod_k (1-q^{dk})^{e_d}.

    Each factor is one sparse multiply by its pentagonal terms; a product
    entry sums at most len(terms) entries of the running series, so that
    bound is checked against int64 before every multiply.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    M = N - 1  # after factoring out the leading q
    series = np.zeros(M + 1, dtype=np.int64)
    series[0] = 1
    for d, e in _ETA_EXPONENTS.items():
        terms = _pentagonal_terms(M, d)
        for _ in range(e):
            if int(np.abs(series).max()) * len(terms) >= 2 ** 63:
                raise OverflowError(f"N = {N} overflows the int64 coefficient product")
            out = np.zeros_like(series)
            for shift, sign in terms:
                out[shift:] += sign * series[: M + 1 - shift]
            series = out
    return QExpansion(level=LEVEL, coeffs=tuple(int(x) for x in series))


def point_count_ap(ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) on the fixed conductor-11 model.

    Counts solutions of y^2 + y = x^3 - x^2 - 10x - 20 plus the point at
    infinity.  a1 = 0, so the left side does not depend on x: one table
    of how many y give each value of y^2 + y, read at the right side of
    every x, is an exact count in O(ell) for every good prime, 2 included.
    """
    if ell == LEVEL:
        raise BadPrimeError("the level is a bad prime for this model")
    if not _is_prime(ell):
        raise BadPrimeError(f"{ell} is not prime")
    _, a2, a3, a4, a6 = WEIERSTRASS
    x = y = np.arange(ell, dtype=np.int64)
    roots = np.bincount((y * y + a3 * y) % ell, minlength=ell)
    rhs = (((x + a2) * x % ell + a4) * x % ell + a6) % ell
    a = ell - int(roots[rhs].sum())
    if a * a > 4 * ell:
        raise ArithmeticError(f"Hasse bound violated at {ell}: a = {a}")
    return a


def frobenius_traces(P: int) -> dict[int, int]:
    """a_ell of 11a for all good primes ell <= P, by point counting."""
    return {p: point_count_ap(p) for p in range(2, P + 1)
            if p != LEVEL and _is_prime(p)}


# ---------------------------------------------------------------------------
# Petersson norm


def _eval_f(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum a_n exp(2 pi i n z) by Horner in q, vectorized over z."""
    q = np.exp(2j * np.pi * np.asarray(z))
    acc = np.zeros_like(q)
    for a_n in coeffs[::-1]:
        acc = (acc + a_n) * q
    return acc


@dataclass(frozen=True)
class PeterssonResult:
    value: float
    est_error: float
    al_sign: int

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("Petersson norm must be positive")


def _al_sign(coeffs: np.ndarray) -> int:
    """Fricke eigenvalue from f(-1/(11 z)) = eps * 11 z^2 f(z), numerically."""
    eps_vals = []
    for z0 in (0.07 + 0.33j, -0.11 + 0.41j, 0.02 + 0.29j):
        lhs = _eval_f(coeffs, np.array([-1.0 / (LEVEL * z0)]))[0]
        rhs = LEVEL * z0 * z0 * _eval_f(coeffs, np.array([z0]))[0]
        eps_vals.append(lhs / rhs)
    eps = np.mean(eps_vals)
    sign = 1 if eps.real > 0 else -1
    if abs(eps - sign) > 1e-8:
        raise ArithmeticError(f"Fricke eigenvalue indeterminate: {eps}")
    return sign


def _gauss_nodes(a, b, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]; array endpoints broadcast."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _strip_integrand(coeffs: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """|f(z)|^2 + (1/121) sum_k |f((z+k)/11)|^2 at z = x + i y (broadcast)."""
    z = x + 1j * y
    total = np.abs(_eval_f(coeffs, z)) ** 2
    for k in range(LEVEL):
        total += np.abs(_eval_f(coeffs, (z + k) / LEVEL)) ** 2 / LEVEL ** 2
    return total


def _parseval_tail(coeffs: np.ndarray, y_split: float) -> float:
    """Exact strip integral above y_split of the folded integrand.

    Both pieces are x-periodic after unfolding, so
    int_{y>Y} = sum_n a_n^2 [ e^{-4 pi n Y} + e^{-4 pi n Y / 11} ] / (4 pi n).
    """
    n = np.arange(1, len(coeffs) + 1, dtype=float)
    a2 = coeffs.astype(float) ** 2
    return float(np.sum(a2 / (4 * np.pi * n)
                        * (np.exp(-4 * np.pi * n * y_split)
                           + np.exp(-4 * np.pi * n * y_split / LEVEL))))


def _petersson_quadrature(coeffs: np.ndarray, panels: int, order: int,
                          y_split: float) -> float:
    """Gauss product rule over the strip |x| <= 1/2, |z| >= 1, y <= y_split, plus the tail.

    All (x, y) nodes of the mesh are built up front, so the integrand is
    one vectorised Horner pass per fold.
    """
    edges = [-0.5 + i / panels for i in range(panels)]
    xs, wx = zip(*(_gauss_nodes(a, a + 1.0 / panels, order) for a in edges))
    x, wx = np.concatenate(xs)[:, None], np.concatenate(wx)
    y0 = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    ys, wy = _gauss_nodes(y0, y_split, order)  # one row of y nodes per x node
    inner = np.sum(wy * _strip_integrand(coeffs, x, ys), axis=1)
    return float(wx @ inner) + _parseval_tail(coeffs, y_split)


def petersson_norm(f: QExpansion, tol: float = 1e-8) -> PeterssonResult:
    """<f,f> = int_{X0(11)} |f|^2 dx dy with a mesh-refinement error bound; 11a only."""
    if f.level != LEVEL:
        raise ValueError("only the level-11 quadrature is modeled")
    n_coef = min(f.truncation, 400)
    coeffs = np.array(f.coeffs[:n_coef], dtype=float)
    sign = _al_sign(coeffs)
    # spot-check the fold identity used by the strip integrand
    z = np.array([0.21 + 0.95j])
    k = 4
    lhs = abs(_eval_f(coeffs, -1.0 / (z + k))[0] / (z[0] + k) ** 2)
    rhs = abs(_eval_f(coeffs, (z + k) / LEVEL)[0]) / LEVEL
    if abs(lhs - rhs) > 1e-9 * max(rhs, 1e-30):
        raise ArithmeticError("fold identity failed its spot check")
    y_split = 1.25
    coarse = _petersson_quadrature(coeffs, panels=4, order=12, y_split=y_split)
    fine = _petersson_quadrature(coeffs, panels=8, order=16, y_split=y_split)
    est = abs(fine - coarse) + 1e-15 * abs(fine)
    if est > tol:
        raise ArithmeticError(f"quadrature error {est:.2e} above tol")
    return PeterssonResult(value=fine, est_error=est, al_sign=sign)


# ---------------------------------------------------------------------------
# symmetric-square L-function


def sym2_local_poly(ell: int, a_ell: int) -> tuple[int, int, int, int]:
    """Good-prime degree-3 factor from a_ell (roots alpha^2, alpha beta, beta^2).

    The coefficients of 1 - e1 x + e2 x^2 - e3 x^3 in x = ell^-s."""
    e1 = a_ell * a_ell - ell
    return (1, -e1, ell * e1, -ell ** 3)


def _sym2_coeff_rows(f: QExpansion, N: int, bad_betas: tuple[int | None, ...]) -> np.ndarray:
    """c_0 .. c_N of L(s, Sym^2 f) = sum c_n n^-s, one row per bad factor.

    Each beta is the reciprocal root of the degree-1 factor at the level
    (None = trivial factor).  The multiplicative fill runs once with
    root 1, one strided multiply by c(p^v(n)) per good prime p; row
    beta is beta^v(n) c_n, v the valuation at the level.  The entries
    are integers below 2^15 up to 8000 terms, so every product is exact
    while they stay below 2^53, in any order of the primes.
    """
    spf = smallest_prime_factors(N)
    c = np.ones(N + 1)
    c[0] = 0.0
    for p in (np.flatnonzero(spf[2:] == np.arange(2, N + 1)) + 2).tolist():
        if p == f.level:
            continue
        # c(p^k) from 1/(1 + c1 X + c2 X^2 + c3 X^3), the good local factor
        _, c1, c2, c3 = sym2_local_poly(p, f.a(p))
        seq = [1.0, float(-c1), float(c1 * c1 - c2)]
        while p ** len(seq) <= N:
            seq.append(-c1 * seq[-1] - c2 * seq[-2] - c3 * seq[-3])
        # multiple i of p, (i + 1) p, is divisible by p^k when p^(k-1) | i + 1;
        # larger k are written later, over the smaller
        local = np.full(N // p, seq[1])
        for k in range(2, len(seq)):
            local[p ** (k - 1) - 1::p ** (k - 1)] = seq[k]
        c[p::p] *= local
    v = np.zeros(N + 1, dtype=np.int64)
    q = f.level
    while q <= N:
        v[q::q] += 1
        q *= f.level
    return np.array([c * np.power(float(beta or 0), v) for beta in bad_betas])


def _gamma_completed(s):
    """N-free archimedean factor GammaC(s) GammaR(s).

    The GammaR shift was itself fixed by the cutoff-independence score:
    over the shapes GammaR(s-2), GammaR(s-1), GammaR(s), GammaR(s+1) the
    residual is minimized (by four orders of magnitude) at GammaR(s),
    jointly with conductor 121, bad reciprocal root +1 and sign +1.
    """
    s = np.asarray(s, dtype=complex)
    return (2.0 * (2 * np.pi) ** (-s) * _cgamma(s)
            * np.pi ** (-s / 2) * _cgamma(s / 2))


# The AFE contour z = c + i tau, |tau| <= 14, sampled by the trapezoid rule.
_C_LINE, _TAU_MAX, _N_TAU = 3.5, 14.0, 449


def _contour() -> tuple[np.ndarray, np.ndarray]:
    """Contour nodes z_j and their trapezoid weights.

    tau is built as the mirror of its tau >= 0 half, so z_{h-j} =
    conj(z_{h+j}) exactly with h = _N_TAU // 2; on the dyadic step 2^-4
    the nodes equal ``linspace(-_TAU_MAX, _TAU_MAX, _N_TAU)``.
    """
    h = _N_TAU // 2
    step = _TAU_MAX / h
    half = np.arange(h + 1) * step
    tau = np.concatenate((-half[:0:-1], half))
    w = np.full(_N_TAU, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return _C_LINE + 1j * tau, w


def _dirichlet_moments(cs: np.ndarray, s0s: tuple[float, ...]) -> np.ndarray:
    """D[k, r, j] = sum_n cs[r, n] n^{-s0s[k] - z_j}, in one pass over n.

    ``cs`` holds one coefficient vector c_0 .. c_N per row (c_0 unused).
    With z_j = c + i tau_j, n^{-s0-z_j} = n^{-s0-c} e^{-i tau_j log n}.
    The modulus goes into the real row weights W = c_n n^{-s0-c}.  The
    grid has b = 1/step nodes per unit of tau (16 on its 2^-4 step), and
    tau_{bq+k} = tau_{bq} + tau_k, so the phase is a coarse table
    e^{-i tau_{bq} log n} times a fine one e^{-i tau_k log n}, k < b:
    b + h/b + 1 exps per n (31) for the h + 1 = 225 columns of the
    tau >= 0 half, whose columns bq .. bq + b - 1 are (W * coarse_q) @
    fine.  The rows are real, so D(-tau) = conj D(tau): the tau < 0
    half is the conjugate of this one, exactly.
    """
    z, _ = _contour()
    h = len(z) // 2  # z[h] is real, z[h - j] = conj(z[h + j])
    tau = z[h:].imag
    b = round(1.0 / tau[1])
    cs = np.atleast_2d(cs)
    sigma = np.asarray(s0s, dtype=float)[:, None, None] + z[h].real
    half = np.zeros((len(s0s) * len(cs), h + 1), dtype=complex)
    n = np.arange(1, cs.shape[1], dtype=float)
    log_n = np.log(n)
    fine = np.exp(-1j * np.outer(log_n, tau[:b]))
    coarse = np.exp(-1j * np.outer(log_n, tau[::b]))
    w = (cs[None, :, 1:] * n ** -sigma).reshape(len(half), len(n))
    for q in range(coarse.shape[1]):
        cols = half[:, b * q:b * (q + 1)]
        cols += (w * coarse[:, q]) @ fine[:, :cols.shape[1]]
    out = np.concatenate((np.conjugate(half[:, :0:-1]), half), axis=1)
    return out.reshape(len(s0s), len(cs), len(z))


_SIGNS = (1, -1)  # root numbers w, in the order of the last axis of _lambdas


def _lambdas(moments: np.ndarray, s0: float, conds: tuple[int, ...],
             xs: tuple[float, ...]) -> np.ndarray:
    """Lambda(s0)[conductor, X, row, sign] by the smoothed approximate functional equation.

    ``moments`` is D[k, row, j] at s1 = s0, 3 - s0 (``_dirichlet_moments``).
    Against D[s1] the kernel gives sum_n c_n n^{-s1} (1/2 pi i) int
    N^{(s1+z)/2} gamma(s1+z) (x/n)^z e^{z^2} dz/z, with x = X at s0 and
    1/X at 3 - s0; the sign w multiplies the 3 - s0 sum.  The factor
    gamma(s1+z) e^{z^2}/z times the trapezoid weights depends on s1
    alone, so it is built once per s1 for every conductor and cutoff.
    """
    z, w = _contour()
    cond = np.asarray(conds, dtype=float)[:, None, None]
    x = np.asarray(xs, dtype=float)[:, None]
    sums = []
    for k, (s1, xk) in enumerate(((s0, x), (3.0 - s0, 1.0 / x))):
        arch = _gamma_completed(s1 + z) * np.exp(z * z) / z * w / (2 * np.pi)
        kern = cond ** ((s1 + z) / 2) * xk ** z * arch
        sums.append((kern @ moments[k].T).real)
    return sums[0][..., None] + np.array(_SIGNS) * sums[1][..., None]


@dataclass(frozen=True)
class Sym2Result:
    value: float
    est_error: float
    conductor: int
    bad_beta: int | None
    sign: int
    fe_residual: float
    rejected: int


def _bad_roots(level: int) -> tuple[int | None, ...]:
    """Reciprocal roots of the degree-1 factor at the level; None = no factor."""
    return (None, 1, -1, level, -level)


def _score_hypotheses(f: QExpansion, s: float,
                      n_terms: int) -> list[tuple[float, int, int | None, int, float]]:
    """(residual, conductor, bad_beta, sign, Lambda_X) per hypothesis, best first.

    N is the form's level.  The coefficients depend only on the bad
    factor and the moments only on (bad factor, s0), so one pass over n
    serves all 20 hypotheses, and one contraction per s0 of the moments
    with the (conductor, cutoff) kernels gives every Lambda_X.
    """
    bad = _bad_roots(f.level)
    conds = (f.level, f.level ** 2)
    moments = _dirichlet_moments(_sym2_coeff_rows(f, n_terms, bad), (s, 3.0 - s))
    lam = _lambdas(moments, s, conds, (1.0, 2.0))
    l1 = lam[:, 0]
    res = np.abs(l1 - lam[:, 1]) / np.maximum(np.abs(l1), 1e-300)
    results = [(float(res[i, b, k]), cond, beta, w_sign, float(l1[i, b, k]))
               for i, cond in enumerate(conds) for b, beta in enumerate(bad)
               for k, w_sign in enumerate(_SIGNS)]
    results.sort(key=lambda r: r[0])
    return results


def sym2_L_value(f: QExpansion, s: float = 2.0, tol: float = 1e-6,
                 n_terms: int = _N_TERMS) -> Sym2Result:
    """L(s, Sym^2 f) with conductor / bad-factor / sign fixed by self-consistency.

    With N = f.level, a prime, every hypothesis in {N, N^2} x
    {trivial, reciprocal root +-1, +-N} x {+-1} is scored by the
    cutoff-independence residual |Lambda_X - Lambda_2X| / |Lambda_X|;
    exactly one must survive below tol, and with none or several there
    is no unique hypothesis and ``NoHypothesisError`` says how many.
    """
    if not (0.0 < tol < math.inf and n_terms >= 1):
        raise DomainError(f"tol = {tol}, n_terms = {n_terms}: need 0 < tol < inf "
                          f"and n_terms >= 1")
    if not _is_prime(f.level) or f.truncation < n_terms:
        raise ValueError(f"need a prime level and n_terms = {n_terms} coefficients; "
                         f"the form has level {f.level} and {f.truncation}")
    results = _score_hypotheses(f, s, n_terms)
    winners = [r for r in results if r[0] < tol]
    if len(winners) != 1:
        raise NoHypothesisError(f"self-consistency search found {len(winners)} hypotheses "
                                f"below {tol}; the best residual at {n_terms} terms is "
                                f"{results[0][0]:.2e}")
    res, cond, beta, w_sign, lam = winners[0]
    gam = (cond ** (s / 2) * _gamma_completed(np.array([complex(s)]))[0]).real
    value = float(lam / gam)
    return Sym2Result(value=value, est_error=abs(res * value) + 1e-12 * abs(value),
                      conductor=cond, bad_beta=beta, sign=w_sign,
                      fe_residual=res, rejected=len(results) - 1)


@cache
def newform_sym2(level: int) -> Sym2Result | None:
    """L(2, Sym^2 f) at the default tolerance and truncation, once per level;
    None where no newform is modeled: 11a, the eta product, is the only one."""
    f = eta_product_qexp(_N_TERMS)
    return sym2_L_value(f) if f.level == level else None


def dirichlet_direct(f: QExpansion, s: float, n_terms: int,
                     bad_beta: int | None) -> float:
    """Plain Dirichlet-series partial sum, usable deep in the convergence region."""
    c = _sym2_coeff_rows(f, n_terms, (bad_beta,))[0]
    n = np.arange(1, len(c), dtype=float)
    return float(np.sum(c[1:] * n ** (-s)))


# ---------------------------------------------------------------------------
# the rationality check

_MAX_DEN, _QUALITY = 10_000, 1e-2


def reconstruct_rational(x: float, tol: float) -> Fraction | None:
    """First continued-fraction convergent within tol, if convincingly rational.

    A convergent p/q is accepted only if |x - p/q| <= tol, q <= _MAX_DEN,
    and q^2 |x - p/q| < _QUALITY: the last gate rejects the chance-level
    approximations every real number has.
    """
    if not math.isfinite(x):
        return None
    p0, q0, p1, q1 = 0, 1, 1, 0
    val = x
    # after the first step every partial quotient is >= 1, so q_k >= F_k
    # (Fibonacci) and the _MAX_DEN gate ends the loop by step 21
    while True:
        a = math.floor(val)
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1 > _MAX_DEN:
            return None
        err = abs(x - p1 / q1)
        if err <= tol:
            if q1 * q1 * err < _QUALITY:
                return Fraction(p1, q1)
            return None
        frac = val - a
        if frac <= 0:
            return None
        val = 1.0 / frac


@dataclass(frozen=True)
class HidaResult:
    ratio: float
    combined_error: float
    rational_guess: Fraction | None
    l_value: float
    petersson: float


def hida_ratio(sym: Sym2Result, pet: PeterssonResult) -> HidaResult:
    """L(2, Sym^2 f) / (pi^3 <f,f>) from computed factors, with a rational reconstruction.

    ``sym`` must be the value at s = 2; the combined error adds the two
    relative errors.
    """
    ratio = sym.value / (math.pi ** 3 * pet.value)
    rel = (sym.est_error / sym.value) + (pet.est_error / pet.value)
    combined = abs(ratio) * rel + 1e-13
    guess = reconstruct_rational(ratio, 10.0 * combined)
    return HidaResult(ratio=ratio, combined_error=combined, rational_guess=guess,
                      l_value=sym.value, petersson=pet.value)


def coefficients_csv(f: QExpansion) -> str:
    lines = ["n,a_n"]
    for i, a in enumerate(f.coeffs, start=1):
        lines.append(f"{i},{a}")
    return "\n".join(lines) + "\n"
