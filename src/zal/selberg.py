"""Selberg zeta local factors and Euler-product evaluation for Re s > 1.

The local factor of a geodesic of length l is

    Z_l(s) = prod_{k>=1} (1 - e^{-(s+k) l})^2,

computed in log space with a certified geometric tail.  The global
product log Z(s) = sum multiplicity * log Z_l(s) is evaluated only in
the absolute-convergence region s > 1, where truncating the spectrum at
a length cutoff L leaves a tail estimated by the prime-geodesic growth
heuristic exp((1-s)L)/((s-1)L); the estimate is reported as heuristic
(the growth constant is asymptotic, not effective at desk cutoffs).

Analytic continuation to s <= 1 is deliberately absent: the s = 1
derivative Z'(1) enters the package as the unknown that the
arithmetic-degree ledger solves for, never as an Euler-product value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lengthspec import LengthSpectrum
from .specfun import _MAX_TERMS, BudgetExhaustedError, DomainError

__all__ = [
    "LocalFactorEval",
    "ZetaEval",
    "local_factor",
    "small_length_asymptotic",
    "selberg_zeta",
    "ruelle_ratio",
]

_S_MIN_GAP = 1e-6
_TOL = 1e-12  # absolute log error of every Euler product and small-length factor


class ConvergenceRegionError(DomainError):
    """Euler product requested outside the certified region s > 1."""


@dataclass(frozen=True)
class LocalFactorEval:
    l: float
    s: float
    value: float
    log_value: float
    tail_bound: float
    terms: int


@dataclass(frozen=True)
class ZetaEval:
    s: float
    log_value: float
    truncation_trace: int
    tail_estimate: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def local_factor(l: float, s: float, tol: float = 1e-14) -> LocalFactorEval:
    """Z_l(s) with |log value - log Z_l(s)| <= tail_bound <= tol, 0 < tol <= 1.

    The tail after K factors is bounded by
    2 sum_{k>K} e^{-(s+k)l} / (1 - e^{-(s+k)l}), summed geometrically:
    with q = e^{-l} and x_K = q^{s+K+1} it is 2 x_K / ((1 - x_K)(1 - q)).
    K = max(1, ceil(log(2 / (tol (1-q))) / l - s)) meets it: then
    x_K <= q tol (1-q) / 2 < 1 - q, so the bound is below
    q tol / (1 - x_K) < tol.  A depth above _MAX_TERMS is refused, and so
    is a tolerance at which 2 / (tol (1-q)) overflows.
    """
    if not l > 0 or not 0 < s < math.inf:
        raise ValueError("local factor needs l > 0 and 0 < s < inf")
    if not 0 < tol <= 1:
        raise ValueError("local factor needs 0 < tol <= 1")
    q = math.exp(-l)
    if q == 1.0:  # l so small that e^-l rounds to 1: a depth beyond any work limit
        depth = math.inf
    else:
        width = tol * (1 - q)
        if width == 0.0 or 2.0 / width == math.inf:
            # tol (1 - q) is subnormal or 0, and a tail bound that small rounds above tol
            raise BudgetExhaustedError(
                f"local factor at l = {l:g}, tol = {tol:g}: tol * (1 - e^-l) = {width:g} "
                "underflows, so 2 / (tol (1 - e^-l)) overflows")
        depth = math.log(2.0 / width) / l - s
    if not depth <= _MAX_TERMS:
        raise BudgetExhaustedError(
            f"local factor at l = {l:g}, tol = {tol:g} needs more than {_MAX_TERMS} terms")
    K = max(1, math.ceil(depth))
    log_val = 0.0
    for k in range(1, K + 1):
        x = math.exp(-(s + k) * l)
        log_val += 2.0 * math.log1p(-x)
    return LocalFactorEval(l=l, s=s, value=math.exp(log_val), log_value=log_val,
                           tail_bound=_tail_bound(l, s, K), terms=K)


def _tail_bound(l: float, s: float, K: int) -> float:
    xK = math.exp(-(s + K + 1) * l)  # < e^{-l} < 1: local_factor refuses q = 1
    return 2.0 * xK / ((1.0 - xK) * (1.0 - math.exp(-l)))


def small_length_asymptotic(s: float, l_list: list[float]) -> list[float]:
    """Gamma(s)^2 * [k>=0 local factor] * exp(pi^2/(3l)) * l^(2s-1) per l.

    Tends to 2 pi as l -> 0 for every s > 0, with an O(l) error.  The
    limit holds in the convention that starts the local product at k = 0;
    the k >= 1 product used by the Euler-product evaluator satisfies the
    same limit only after multiplying back the (1 - e^{-s l})^2 layer,
    which is done here.  (Mellin expansion: log of the k >= 1 factor is
    -pi^2/(3l) - (2s+1) log l - 2 log Gamma(s+1) + log 2pi + O(l).)

    Computed in log space so the exponentially small product and the
    exponentially large compensator never meet in float range.
    """
    if not s > 0:
        raise ValueError("needs s > 0")
    out = []
    for l in l_list:
        if not l > 0:
            raise ValueError("lengths must be positive")
        lf = local_factor(l, s, _TOL)
        log_k0_layer = 2.0 * math.log1p(-math.exp(-s * l))
        log_total = (2.0 * math.lgamma(s) + log_k0_layer + lf.log_value
                     + math.pi ** 2 / (3.0 * l) + (2.0 * s - 1.0) * math.log(l))
        out.append(math.exp(log_total))
    return out


def selberg_zeta(spectrum: LengthSpectrum, s: float) -> ZetaEval:
    """log Z(s) over the spectrum, with certified local tails summing to at most _TOL.

    An empty spectrum is the empty product, log Z = 0.
    """
    if not 1.0 + _S_MIN_GAP < s < math.inf:
        raise ConvergenceRegionError(f"need s > 1 + {_S_MIN_GAP} and finite; got {s}")
    entries = spectrum.entries
    if not entries:
        return ZetaEval(s=s, log_value=0.0, truncation_trace=spectrum.max_trace,
                        tail_estimate=_pgt_tail(spectrum.max_trace, s))
    total_mult = sum(e.multiplicity for e in entries)
    per_tol = _TOL / (2.0 * total_mult)
    log_val = 0.0
    for e in entries:  # deterministic order: entries are length-sorted
        lf = local_factor(e.length, s, per_tol)
        log_val += e.multiplicity * lf.log_value
    return ZetaEval(s=s, log_value=log_val, truncation_trace=spectrum.max_trace,
                    tail_estimate=_pgt_tail(spectrum.max_trace, s))


def _pgt_tail(max_trace: int, s: float) -> float:
    """Heuristic spectral-cutoff tail: 2 exp((1-s)L) / ((s-1) L)."""
    if max_trace < 3:
        L = 2.0 * math.acosh(1.5)
    else:
        L = 2.0 * math.acosh(max_trace / 2.0)
    return 2.0 * math.exp((1.0 - s) * L) / ((s - 1.0) * L)


def ruelle_ratio(spectrum: LengthSpectrum, s: float) -> float:
    """Z(s)/Z(s+1) from two Euler-product evaluations."""
    za = selberg_zeta(spectrum, s)
    zb = selberg_zeta(spectrum, s + 1.0)
    return math.exp(za.log_value - zb.log_value)
