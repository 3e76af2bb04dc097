"""Level-11 weight-2 eigenform: coefficients, Petersson norm, symmetric-square L.

The unique normalized weight-2 eigenform of level 11 is modeled two
independent ways:

* the eta product q prod (1-q^k)^2 (1-q^{11k})^2, expanded with exact
  integer arithmetic (pentagonal-number sparsity makes this cheap);
* counting points on the fixed conductor-11 Weierstrass model

      y^2 + y = x^3 - x^2 - 10 x - 20

  over F_ell, giving a_ell = ell + 1 - #E(F_ell).

Agreement of the two is the module's central cross-oracle property.

The Petersson square norm <f,f> = int |f|^2 dx dy over a level-11
fundamental domain is computed by folding the twelve coset translates of
the standard modular domain through the Fricke involution
f(-1/(11 z)) = eps * 11 z^2 f(z), which turns every evaluation into a
rapidly convergent q-series at Im >= sqrt(3)/22; the region above a
split height is integrated in closed form via Parseval.

L(s, Sym^2 f) is evaluated through a smoothed (contour-Mellin)
approximate functional equation for the completed function

    Lambda(s) = N^{s/2} GammaC(s) GammaR(s) L(s),  Lambda(s) = w Lambda(3-s),

with the conductor N, the sign w and the local Euler factor at 11
selected by a self-consistency search: a hypothesis is kept only if the
evaluation is independent of the smoothing cutoff.  The winning
hypothesis is unique at desk tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _cgamma

__all__ = [
    "QExpansion",
    "Sym2LocalFactor",
    "PeterssonResult",
    "Sym2Result",
    "HidaResult",
    "eta_product_qexp",
    "point_count_ap",
    "frobenius_traces",
    "dirichlet_direct",
    "petersson_norm",
    "sym2_L_value",
    "hida_ratio",
    "reconstruct_rational",
    "sym2_local_poly",
    "coefficients_csv",
]

LEVEL = 11
WEIERSTRASS = (0, -1, 1, -10, -20)  # a1, a2, a3, a4, a6 of the model above


class BadPrimeError(ValueError):
    """Point counting requested at the bad prime or a non-prime."""


@dataclass(frozen=True)
class QExpansion:
    level: int
    weight: int
    coeffs: tuple[int, ...]  # a_1 .. a_N

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("expansion must be normalized: a_1 = 1")

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def a(self, n: int) -> int:
        return self.coeffs[n - 1]


def _pentagonal_terms(N: int, step: int = 1) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of prod_k (1 - q^{step*k}) up to q^N."""
    out = [(0, 1)]
    j = 1
    while True:
        hit = False
        for jj in (j, -j):
            e = step * jj * (3 * jj - 1) // 2
            if 0 < e <= N:
                out.append((e, (-1) ** j))
                hit = True
        if not hit:
            break
        j += 1
    return out


def _square_sparse(terms: list[tuple[int, int]], N: int) -> np.ndarray:
    arr = np.zeros(N + 1, dtype=np.int64)
    for i, (e1, s1) in enumerate(terms):
        if 2 * e1 <= N:
            arr[2 * e1] += s1 * s1
        for e2, s2 in terms[i + 1:]:
            e = e1 + e2
            if e <= N:
                arr[e] += 2 * s1 * s2
    return arr


@lru_cache(maxsize=4)
def eta_product_qexp(N: int) -> QExpansion:
    """Exact coefficients a_1..a_N of q prod (1-q^k)^2 (1-q^{11k})^2."""
    if N < 1:
        raise ValueError("need N >= 1")
    M = N - 1  # after factoring out the leading q
    part1 = _square_sparse(_pentagonal_terms(M, 1), M)
    part11_terms = _pentagonal_terms(M, 11)
    part11 = _square_sparse(part11_terms, M)
    if int(np.abs(part1).max()) * int(np.abs(part11).max()) * (M // 11 + 2) >= 2 ** 62:
        raise OverflowError(f"N = {N} overflows the int64 coefficient convolution")
    prod = np.zeros(M + 1, dtype=np.int64)
    for e in np.nonzero(part11)[0]:
        prod[e:] += part11[e] * part1[: M + 1 - e]
    return QExpansion(level=LEVEL, weight=2, coeffs=tuple(int(x) for x in prod))


def point_count_ap(ell: int, exhaustive: bool | None = None) -> int:
    """a_ell = ell + 1 - #E(F_ell) on the fixed conductor-11 model.

    Counts solutions of y^2 + y = x^3 - x^2 - 10x - 20 plus the point at
    infinity; exhaustive (x, y) loop for small ell, per-x square counting
    for large ell (still an exact point count).
    """
    from .lengthspec import _is_prime
    if ell == LEVEL:
        raise BadPrimeError("the level is a bad prime for this model")
    if not _is_prime(ell):
        raise BadPrimeError(f"{ell} is not prime")
    a1, a2, a3, a4, a6 = WEIERSTRASS
    if exhaustive is None:
        exhaustive = ell <= 1000
    if exhaustive:
        count = 1  # infinity
        for x in range(ell):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
            for y in range(ell):
                if (y * y + a1 * x * y + a3 * y) % ell == rhs:
                    count += 1
        a = ell + 1 - count
    elif ell == 2:
        return point_count_ap(2, exhaustive=True)
    else:
        # complete the square: (2y+1)^2 = 4(x^3 - x^2 - 10x - 20) + 1
        x = np.arange(ell, dtype=np.int64)
        gx = (4 * (((x - 1) % ell * x % ell - 10) % ell * x % ell - 20) + 1) % ell
        sq = np.zeros(ell, dtype=np.int8)
        sq[(x * x) % ell] = 1
        chi = np.where(gx == 0, 0, np.where(sq[gx] == 1, 1, -1))
        a = -int(chi.sum())
    if a * a > 4 * ell:
        raise ArithmeticError(f"Hasse bound violated at {ell}: a = {a}")
    return a


def frobenius_traces(P: int) -> dict[int, int]:
    """a_ell for all good primes ell <= P, by point counting."""
    from .lengthspec import _is_prime
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


def _gauss_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _strip_integrand(coeffs: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """|f(z)|^2 + (1/121) sum_k |f((z+k)/11)|^2 at height y."""
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
    total = 0.0
    xs_all, wx_all = [], []
    for i in range(panels):
        a = -0.5 + i / panels
        xs, wx = _gauss_nodes(a, a + 1.0 / panels, order)
        xs_all.append(xs)
        wx_all.append(wx)
    for xs, wx in zip(xs_all, wx_all):
        for j, x in enumerate(xs):
            y0 = math.sqrt(max(1.0 - x * x, 0.0))
            ys, wy = _gauss_nodes(y0, y_split, order)
            vals = np.array([_strip_integrand(coeffs, np.array([x]), y)[0] for y in ys])
            total += wx[j] * float(np.dot(wy, vals))
    return total + _parseval_tail(coeffs, y_split)


def petersson_norm(f: QExpansion, tol: float = 1e-8) -> PeterssonResult:
    """<f,f> = int_{X0(11)} |f|^2 dx dy with a mesh-refinement error bound."""
    if f.level != LEVEL:
        raise ValueError("only the level-11 pipeline is modeled")
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
        finest = _petersson_quadrature(coeffs, panels=12, order=24, y_split=y_split)
        est = abs(finest - fine) + 1e-15 * abs(finest)
        fine = finest
        if est > tol:
            raise ArithmeticError(f"quadrature error {est:.2e} above tol")
    return PeterssonResult(value=fine, est_error=est, al_sign=sign)


# ---------------------------------------------------------------------------
# symmetric-square L-function


@dataclass(frozen=True)
class Sym2LocalFactor:
    ell: int
    poly_coeffs: tuple[int, ...]  # 1 - e1 x + e2 x^2 - e3 x^3 in x = ell^-s

    def reciprocal_root_moduli(self) -> list[float]:
        roots = np.roots(self.poly_coeffs[::-1])
        return sorted(1.0 / abs(r) for r in roots)


def sym2_local_poly(ell: int, a_ell: int) -> Sym2LocalFactor:
    """Good-prime degree-3 factor from a_ell (roots alpha^2, alpha beta, beta^2)."""
    e1 = a_ell * a_ell - ell
    return Sym2LocalFactor(ell=ell, poly_coeffs=(1, -e1, ell * e1, -ell ** 3))


def _sym2_dirichlet_coeffs(f: QExpansion, N: int, bad_beta: int | None,
                           prime_cap: int | None = None) -> np.ndarray:
    """c_n of L(s, Sym^2 f) = sum c_n n^-s up to N, multiplicative fill.

    ``bad_beta`` is the reciprocal root of the degree-1 factor at the
    level (None = trivial factor).  ``prime_cap`` truncates the Euler
    product for the truncation study.
    """
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, N + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    c = np.zeros(N + 1)
    c[1] = 1.0
    powers: dict[int, list[float]] = {}
    for p in range(2, N + 1):
        if spf[p] != p:
            continue
        kmax = int(math.log(N) / math.log(p)) + 1
        if prime_cap is not None and p > prime_cap:
            powers[p] = [1.0] + [0.0] * kmax
            continue
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


def _afe_sum(c: np.ndarray, s0: float, cond: int, X: float,
             c_line: float = 3.5, tau_max: float = 14.0, n_tau: int = 449) -> float:
    """sum_n c_n n^{-s0} (1/2 pi i) int N^{(s0+z)/2} gamma(s0+z) (X/n)^z e^{z^2} dz/z."""
    tau = np.linspace(-tau_max, tau_max, n_tau)
    z = c_line + 1j * tau
    w = np.full(n_tau, tau[1] - tau[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    kern = (cond ** ((s0 + z) / 2) * _gamma_completed(s0 + z)
            * np.exp(z * z) * X ** z / z) * w / (2 * np.pi)
    n = np.arange(1, len(c), dtype=float)
    total = 0.0
    chunk = 4096
    for i0 in range(0, len(n), chunk):
        nn = n[i0:i0 + chunk]
        cc = c[1:][i0:i0 + chunk]
        if not np.any(cc):
            continue
        mat = np.exp(-np.outer(np.log(nn), z))  # n^{-z}
        contrib = (cc * nn ** (-s0)) @ (mat @ kern)
        total += contrib.real
        if abs(contrib.real) < 1e-18 * max(abs(total), 1.0):
            break
    return total


def _lambda_value(c: np.ndarray, s0: float, cond: int, w_sign: int, X: float) -> float:
    """Lambda(s0) by the smoothed approximate functional equation at cutoff X."""
    return (_afe_sum(c, s0, cond, X)
            + w_sign * _afe_sum(c, 3.0 - s0, cond, 1.0 / X))


@dataclass(frozen=True)
class Sym2Result:
    value: float
    est_error: float
    conductor: int
    bad_beta: int | None
    sign: int
    fe_residual: float
    rejected: int


_BAD_CANDIDATES: tuple[int | None, ...] = (None, 1, -1, 11, -11)


def sym2_L_value(f: QExpansion, s: float = 2.0, tol: float = 1e-6,
                 n_terms: int = 8000) -> Sym2Result:
    """L(s, Sym^2 f) with conductor / bad-factor / sign fixed by self-consistency.

    Every hypothesis in {11, 121} x {trivial, root +-1, +-1/11} x {+-1}
    is scored by the cutoff-independence residual
    |Lambda_X - Lambda_2X| / |Lambda_X|; exactly one survives below tol.
    """
    if f.level != LEVEL:
        raise ValueError("only the level-11 pipeline is modeled")
    if f.truncation < n_terms:
        f = eta_product_qexp(n_terms)
    results = []
    for cond in (LEVEL, LEVEL ** 2):
        for beta in _BAD_CANDIDATES:
            c = _sym2_dirichlet_coeffs(f, n_terms, beta)
            for w_sign in (1, -1):
                l1 = _lambda_value(c, s, cond, w_sign, X=1.0)
                l2 = _lambda_value(c, s, cond, w_sign, X=2.0)
                res = abs(l1 - l2) / max(abs(l1), 1e-300)
                results.append((res, cond, beta, w_sign, l1))
    results.sort(key=lambda r: r[0])
    winners = [r for r in results if r[0] < tol]
    if len(winners) != 1:
        raise ArithmeticError(
            f"self-consistency search found {len(winners)} hypotheses below {tol}"
        )
    res, cond, beta, w_sign, lam = winners[0]
    gam = (cond ** (s / 2) * _gamma_completed(np.array([complex(s)]))[0]).real
    value = lam / gam
    return Sym2Result(value=value, est_error=abs(res * value) + 1e-12 * abs(value),
                      conductor=cond, bad_beta=beta, sign=w_sign,
                      fe_residual=res, rejected=len(results) - 1)


def dirichlet_direct(f: QExpansion, s: float, n_terms: int,
                     bad_beta: int | None) -> float:
    """Plain Dirichlet-series partial sum, usable deep in the convergence region."""
    c = _sym2_dirichlet_coeffs(f, n_terms, bad_beta)
    n = np.arange(1, len(c), dtype=float)
    return float(np.sum(c[1:] * n ** (-s)))


# ---------------------------------------------------------------------------
# the rationality check


def reconstruct_rational(x: float, tol: float, max_den: int = 10_000,
                         quality: float = 1e-2) -> Fraction | None:
    """First continued-fraction convergent within tol, if convincingly rational.

    A convergent p/q is accepted only if |x - p/q| <= tol, q <= max_den,
    and q^2 |x - p/q| < quality: the last gate rejects the chance-level
    approximations every real number has.
    """
    if not math.isfinite(x):
        return None
    p0, q0, p1, q1 = 0, 1, 1, 0
    val = x
    for _ in range(64):
        a = math.floor(val)
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1 > max_den:
            return None
        err = abs(x - p1 / q1)
        if err <= tol:
            if q1 * q1 * err < quality:
                return Fraction(p1, q1)
            return None
        frac = val - a
        if frac <= 0:
            return None
        val = 1.0 / frac
    return None


@dataclass(frozen=True)
class HidaResult:
    ratio: float
    combined_error: float
    rational_guess: Fraction | None
    l_value: float
    petersson: float


def hida_ratio(tol: float = 1e-6, n_terms: int = 8000) -> HidaResult:
    """L(2, Sym^2 f) / (pi^3 <f,f>), with a rational-candidate reconstruction."""
    f = eta_product_qexp(max(n_terms, 600))
    pet = petersson_norm(f, tol=min(1e-8, tol))
    sym = sym2_L_value(f, 2.0, tol=tol, n_terms=n_terms)
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
