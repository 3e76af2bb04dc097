"""Class counts of the modular group from Dirichlet's class-number formula.

The number h of primitive hyperbolic classes of trace t and content u is
the narrow class number h+(d0) of d0 = (t^2 - 4)/u^2, counted where
(t, u) is the least solution of x^2 - d0 y^2 = 4.  Write
t^2 - 4 = D F^2 with D fundamental (one smallest-prime-factor sieve
factors t - 2 and t + 2); the contents are the u dividing F that pass a
Chebyshev test, with no Pell walk.  The unit (t + u sqrt d0)/2 has log
acosh(t/2), so

    h acosh(t/2) = sqrt(D) L(1, chi_D) f prod_{p | f} (1 - chi_D(p)/p),

f = F/u (Cohen, GTM 138, 5.6; Sarnak, J. Number Theory 15, 1982).  The
L-value comes from the erfc/E1 series and a bound on the series tail,
the special-function error and the summation error.  erfc is scipy's;
E1 is evaluated here in numpy (``_e1``), to a relative error derived from
its truncations and roundings rather than taken from a library's
documentation.  Each D's series is
summed only as far as its roundings need: to a bound of acosh(t/2)/(8g)
over the (t, g) that read it, g = f prod (1 - chi_D(p)/p), so every count
carries an error of at most 1/8.  A count is rounded only when its
distance to the nearest integer plus the bound is below 1/2; otherwise
that trace is counted on the reduction cycles (``oracles._cycle_counts``),
and ``CLASS_COUNTS.fallbacks`` counts such traces.  The counts are kept
in one table per process, filled up to the largest trace asked for.

``lengthspec`` imports this module only when it counts a spectrum, so
commands that never do load no numpy or scipy through it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from math import isqrt

import numpy as np
from scipy.special import erfc

from .oracles import _cycle_counts

_EPS = sys.float_info.epsilon
# E1 (see ``_e1``): the power series up to _E1_X0, the J-fraction above it,
# deeper up to _E1_X1 than beyond; each truncation is solved from its
# remainder bound to stay within _E1_TRUNC, relative
_E1_X0, _E1_X1 = 2.0, 4.0
_E1_TRUNC = 1e-13


def _series_remainder(K: int, x: float) -> float:
    """Relative bound on E1's power series after K terms, at every x' <= x:
    the alternating tail is below its first term x^(K+1)/((K+1)(K+1)!), and
    E1(x') > e^-x'/(1 + x') (the J-fraction's first convergent)."""
    return x ** (K + 1) / ((K + 1) * math.factorial(K + 1)) * (1 + x) * math.exp(x)


def _fraction_remainder(K: int, x: float) -> float:
    """Relative bound on the depth-K J-fraction of e^x E1(x), at every
    x' >= x: it is the K-node Gauss-Laguerre rule of int_0^inf e^-t/(x + t)
    dt, which underestimates by int e^-t L_K(t)^2/((x + t) L_K(-x)^2) dt
    <= 1/(x L_K(-x)^2), L_K(-x) = sum_j C(K, j) x^j/j!, and
    e^x E1(x) > 1/(1 + x)."""
    laguerre = sum(math.comb(K, j) * x ** j / math.factorial(j) for j in range(K + 1))
    return (1 + x) / (x * laguerre ** 2)


def _least_depth(remainder, x: float) -> int:
    K = 1
    while remainder(K, x) > _E1_TRUNC:  # each remainder falls to 0 with K
        K += 1
    return K


_E1_TERMS = _least_depth(_series_remainder, _E1_X0)
_E1_DEEP = _least_depth(_fraction_remainder, _E1_X0)
_E1_SHALLOW = _least_depth(_fraction_remainder, _E1_X1)
_E1_COEFFS = [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, _E1_TERMS + 1)]
# Rounding, in units u = eps/2, with numpy's log and exp taken within 4 ulp.
# Series: term k passes 2k + 3 roundings, gamma 3 and log x 9, so the error
# is at most u (sum (2k + 3) |c_k| x^k + 3 gamma + 9 |log x|).  Over
# E1(x) > e^-x/(1 + x) that grows on [1, x0] and is below 50 u for x < 1,
# so its value at x0 bounds the band.
# J-fraction: backward, f_k = x + 2k - 1 - k^2/f_(k+1) >= x + k for k >= 2
# (x >= 1), so the rounding of f_(k+1) reaches f_k damped by
# k^2/(f_k f_(k+1)) < 1; the products of those factors sum to below 1.2 at
# x >= x0, which leaves f_1 within 5 u and E1 = e^-x/f_1 within 14 u, far
# below the series' bound.
_E1_REL_ERR = _E1_TRUNC + (1 + _E1_X0) * math.exp(_E1_X0) * _EPS / 2 * (
    sum((2 * k + 3) * abs(c) * _E1_X0 ** k for k, c in enumerate(_E1_COEFFS, 1))
    + 3 * np.euler_gamma + 9 * math.log(_E1_X0))
# relative error of one series term, a sum of two positive parts:
# - erfc: scipy's, which cephes documents to a 5.7e-14 peak, plus the
#   rounding of its argument, about 2 x^2 eps where the terms matter (x < 6);
# - E1: _E1_REL_ERR (1.8e-13), derived above, plus (1 + x) delta for the
#   rounding delta <= 4 eps of x = pi n^2/D, as |x E1'(x)/E1(x)| < 1 + x;
#   below 1e-12 while e^-x is a normal float (x < 708).
_TERM_REL_ERR = 1e-12
# entries of one row block of the series: a float64 block is 128 KB
_BLOCK_ENTRIES = 1 << 14


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m], the least prime factor of m, for 0 <= m <= n (0 at m = 0, 1)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]  # a view: the mask writes into spf
            multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)
    spf[primes] = primes
    spf[:2] = 0
    return spf


def _prime_powers(m: int, spf: list[int]) -> Counter:
    out: Counter = Counter()
    while m > 1:
        p = spf[m]
        out[p] += 1
        m //= p
    return out


def _kronecker(D: int, p: int) -> int:
    """The Kronecker symbol (D / p) of a discriminant D at a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    r = D % p
    return 0 if r == 0 else (1 if pow(r, (p - 1) // 2, p) == 1 else -1)


def _power_steps(T: int) -> dict[int, tuple[int, ...]]:
    """t -> the U_{k-1}(s) with T_k(s) = t, over s >= 3, k >= 2, t <= T.

    T_k and U_k are the Chebyshev recursions x_{k+1} = s x_k - x_{k-1}
    from (T_0, T_1) = (2, s) and (U_0, U_1) = (1, s): the k-th power of
    the unit (s + v sqrt d)/2 is (T_k(s) + v U_{k-1}(s) sqrt d)/2.
    """
    steps: dict[int, list[int]] = {}
    s = 3
    while s * s - 2 <= T:
        t0, t1, u0, u1 = s, s * s - 2, 1, s
        while t1 <= T:
            steps.setdefault(t1, []).append(u1)
            t0, t1, u0, u1 = t1, s * t1 - t0, u1, s * u1 - u0
        s += 1
    return {t: tuple(us) for t, us in steps.items()}


def _is_fundamental(t: int, u: int, steps: dict[int, tuple[int, ...]]) -> bool:
    """(t, u) is the least positive solution of x^2 - d0 y^2 = 4, where
    d0 = (t^2 - 4)/u^2: no s, k with T_k(s) = t has U_{k-1}(s) | u, so
    (t + u sqrt d0)/2 is no k-th power of a smaller unit (s + v sqrt d0)/2,
    v = u / U_{k-1}(s)."""
    return not any(u % w == 0 for w in steps.get(t, ()))


def _characters(D: np.ndarray, n: int, spf: np.ndarray,
                layers: list[np.ndarray]) -> np.ndarray:
    """chi_D(m) = (D / m) for 0 <= m <= n, one float row per discriminant.

    Odd primes by Euler's criterion D^((p-1)/2) mod p, 2 by the Kronecker
    rule, composites multiplicatively: ``layers`` holds the composites by
    their number of prime factors, so each layer reads only the last.
    """
    chi = np.zeros((len(D), n + 1))
    chi[:, 1] = 1.0
    if n >= 2:
        r = D % 8
        chi[:, 2] = np.where(r % 2 == 0, 0.0, np.where((r == 1) | (r == 7), 1.0, -1.0))
    odd = np.flatnonzero(spf[: n + 1] == np.arange(n + 1))
    odd = odd[odd > 2]
    base = D[:, None] % odd
    e = (odd - 1) // 2
    res = np.ones_like(base)
    while e.any():
        res = np.where(e & 1, res * base % odd, res)
        base = base * base % odd
        e >>= 1
    chi[:, odd] = np.where(res == 1, 1.0, np.where(res == 0, 0.0, -1.0))
    for idx in layers:
        idx = idx[: np.searchsorted(idx, n, side="right")]
        chi[:, idx] = chi[:, spf[idx]] * chi[:, idx // spf[idx]]
    return chi


def _tail(D: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Bound on the series tail after N terms (see ``_l_series``)."""
    y = np.pi * (N + 1) ** 2 / D
    return 2.0 / y * np.exp(-y) / -np.expm1(-np.pi * (2 * N + 3) / D)


def _terms(D: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The least N >= 1 whose tail bound is at most ``tail``, per row.

    In y = pi (N+1)^2/D the bound is 2 e^-y/(y (1 - e^-a)), a = 2 sqrt(pi
    y/D) + pi/D, and falls strictly, so it meets ``tail`` at one y*, the
    fixed point of the decreasing map g(y) = log(2/tail) - log y - log(1 -
    e^-a): y* lies between any y > 0 and g(y).  Two steps of g give that
    bracket in closed form; widened by one N on each side against rounding,
    it is bisected on the bound itself.
    """
    c = np.log(2 / tail)

    def g(y):
        return c - np.log(y) - np.log(-np.expm1(-2 * np.sqrt(np.pi * y / D) - np.pi / D))

    y = np.maximum(g(np.maximum(c, 1.0)), np.finfo(float).tiny)
    gy = g(y)
    lo = np.floor(np.sqrt(np.maximum(np.minimum(y, gy), 0) * D / np.pi)) - 2
    hi = np.ceil(np.sqrt(np.maximum(y, gy) * D / np.pi))
    lo, hi = np.maximum(lo, 0).astype(np.int64), np.maximum(hi, 1).astype(np.int64)
    while (gap := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = _tail(D, mid) <= tail
        lo, hi = np.where(gap & ~ok, mid, lo), np.where(gap & ok, mid, hi)
    return hi


def _fraction_steps(x: np.ndarray, f: np.ndarray, top: int, bottom: int) -> np.ndarray:
    """f <- x + 2k - 1 - k^2/f for k = top down to bottom, in place."""
    shifted = np.empty_like(x)
    for k in range(top, bottom - 1, -1):
        np.divide(k * k, f, out=f)
        np.add(x, 2 * k - 1, out=shifted)
        np.subtract(shifted, f, out=f)
    return f


def _e1(x: np.ndarray) -> np.ndarray:
    """E1(x) for x > 0, within _E1_REL_ERR relative while e^-x is normal.

    Up to _E1_X0 the alternating power series -gamma - log x + sum_{k >= 1}
    (-1)^(k+1) x^k/(k k!) to _E1_TERMS terms, by Horner's rule.  Above it
    e^x E1(x) = int_0^inf e^-t/(x + t) dt from the J-fraction 1/(x+1 -
    1^2/(x+3 - 2^2/(x+5 - ...))), evaluated backward from depth _E1_DEEP up
    to _E1_X1 and _E1_SHALLOW beyond, where the deeper part joins it.
    """
    out = np.empty_like(x)
    series = x <= _E1_X0
    xs = x[series]
    p = np.full_like(xs, _E1_COEFFS[-1])
    for c in reversed(_E1_COEFFS[:-1]):
        p *= xs
        p += c
    p *= xs
    p -= np.euler_gamma
    p -= np.log(xs)
    out[series] = p
    fraction = ~series
    xf = x[fraction]
    f = xf + (2 * _E1_SHALLOW - 1)
    deep = xf <= _E1_X1
    xd = xf[deep]
    f[deep] = _fraction_steps(xd, xd + (2 * _E1_DEEP - 1), _E1_DEEP - 1, _E1_SHALLOW)
    _fraction_steps(xf, f, _E1_SHALLOW - 1, 1)
    np.negative(xf, out=xf)
    np.exp(xf, out=xf)
    out[fraction] = np.divide(xf, f, out=xf)
    return out


def _l_series(D: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(D) L(1, chi_D) and a bound on its error, for fundamental
    discriminants D > 1, each summed to about its ``target`` error.

    sqrt(D) L(1, chi_D) = sum_n chi_D(n) a_n with a_n = sqrt(D)/n
    erfc(n sqrt(pi/D)) + E1(pi n^2/D) (Cohen, GTM 138, 5.6.9; chi_D is even
    as D > 0).  From erfc(x) <= e^-x^2/(x sqrt pi) and E1(y) <= e^-y/y,
    a_n <= 2D/(pi n^2) e^(-pi n^2/D), so the tail after N terms is at most
    2D/(pi (N+1)^2) e^(-pi (N+1)^2/D) / (1 - e^(-pi (2N+3)/D)).  Each row
    sums the least N whose tail bound is at most target/2; the other half
    is left to the term and summation errors,
    (_TERM_REL_ERR + N eps/(1 - N eps)) sum |a_n|, which the bound adds to
    the tail.  _TERM_REL_ERR covers scipy's erfc and ``_e1`` with the
    rounding of their arguments.  Rows are evaluated in blocks of about
    _BLOCK_ENTRIES terms, each block to its largest N.
    """
    n_terms = _terms(D, target / 2)
    spf = smallest_prime_factors(int(n_terms.max()))
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
        while j < len(D) and (j + 1 - i) * max(N, n_terms[j]) <= _BLOCK_ENTRIES:
            N = max(N, int(n_terms[j]))
            j += 1
        d = D[i:j].astype(float)
        n = np.arange(1, N + 1, dtype=float)
        x = n * np.sqrt(np.pi / d)[:, None]
        a = erfc(x)
        a *= np.sqrt(d)[:, None]
        a /= n
        x *= x
        a += _e1(x)
        gamma = N * _EPS / (1.0 - N * _EPS)
        bound[i:j] = _tail(d, N) + (_TERM_REL_ERR + gamma) * a.sum(axis=1)
        chi = _characters(D[i:j], N, spf, layers)[:, 1:]
        value[i:j] = (np.multiply(chi, a, out=chi)).sum(axis=1)
        i = j
    return value, bound


class ClassCounts:
    """(content u, class count h) pairs of every trace t, ascending in u,
    from Dirichlet's class-number formula.

    Only the band above the traces already counted is computed.  A trace
    whose rounding the error bound cannot certify is counted on the
    reduction cycles instead and adds one to ``fallbacks``; ``max_err`` is
    the largest certified error of a rounded count.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[tuple[int, int], ...]] = [(), (), ()]
        self.fallbacks = 0
        self.max_err = 0.0

    def upto(self, T: int) -> list[tuple[tuple[int, int], ...]]:
        if T >= len(self.rows):
            self._fill(T)
        return self.rows

    def _fill(self, T: int) -> None:
        spf = smallest_prime_factors(T + 2).tolist()
        steps = _power_steps(T)
        traces = range(len(self.rows), T + 1)
        fundamental: list[int] = []
        contents: list[list[tuple[int, int]]] = []  # (u, f prod (1 - chi(p)/p)) per t
        for t in traces:
            e = _prime_powers(t - 2, spf) + _prime_powers(t + 2, spf)
            core = math.prod(p for p, k in e.items() if k % 2)
            F = {p: k // 2 for p, k in e.items() if k > 1}
            if core % 4 != 1:  # t^2 - 4 = 4 core (F/2)^2, core = 2 or 3 mod 4
                core *= 4
                F[2] -= 1
            fundamental.append(core)
            pairs = [(1, 1)]
            for p, k in F.items():
                c = _kronecker(core, p)
                opts = [(p ** j, p ** (k - j - 1) * (p - c) if j < k else 1)
                        for j in range(k + 1)]
                pairs = [(u * pu, g * pg) for u, g in pairs for pu, pg in opts]
            contents.append(sorted((u, g) for u, g in pairs if _is_fundamental(t, u, steps)))
        # each D's series is read at h = s g / acosh(t/2): an error of
        # acosh(t/2)/(8g) in s is 1/8 in h, well inside the 1/2 of the rounding
        log_units = [math.acosh(t / 2) for t in traces]
        target: dict[int, float] = {}
        for log_unit, core, pairs in zip(log_units, fundamental, contents):
            for _, g in pairs:
                target[core] = min(target.get(core, math.inf), log_unit / (8 * g))
        D = sorted(target)
        value, bound = _l_series(np.array(D, dtype=np.int64), np.array([target[d] for d in D]))
        series = dict(zip(D, zip(value.tolist(), bound.tolist())))
        for t, log_unit, core, pairs in zip(traces, log_units, fundamental, contents):
            s, s_err = series[core]
            counts: list[tuple[int, int]] | None = []
            worst = 0.0
            for u, g in pairs:
                h = s * g / log_unit
                err = s_err * g / log_unit + 4 * _EPS * abs(h)
                k = round(h)
                if k < 1 or abs(h - k) + err >= 0.5:
                    counts = None
                    break
                worst = max(worst, err)
                counts.append((u, k))
            if counts is None:
                self.fallbacks += 1
                self.rows.append(_cycle_counts(t))
            else:
                self.max_err = max(self.max_err, worst)
                self.rows.append(tuple(counts))


CLASS_COUNTS = ClassCounts()
