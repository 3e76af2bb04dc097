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
the special-function error and the summation error.  Each D's series is
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
from scipy.special import erfc, exp1

from .oracles import _cycle_counts

# relative error of one series term: scipy's erfc and exp1 (cephes reports a
# 5.7e-14 peak for erfc) plus the rounding of their arguments, which adds
# about 2 x^2 eps where the terms matter (x < 6); 1e-12 leaves a margin
_TERM_REL_ERR = 1e-12
# entries of one row block of the series: a float64 block is 128 KB
_BLOCK_ENTRIES = 1 << 14
_EPS = sys.float_info.epsilon


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
    """The least N >= 1 whose tail bound is at most ``tail``, per row: the
    bound falls with N, so double N until it holds, then bisect."""
    lo, hi = np.zeros_like(D), np.ones_like(D)
    while (short := _tail(D, hi) > tail).any():
        lo, hi = np.where(short, hi, lo), np.where(short, 2 * hi, hi)
    while (gap := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = _tail(D, mid) <= tail
        lo, hi = np.where(gap & ~ok, mid, lo), np.where(gap & ok, mid, hi)
    return hi


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
    the tail.  Rows are evaluated in blocks of about _BLOCK_ENTRIES terms,
    each block to its largest N.
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
        a += exp1(x, out=x)
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
