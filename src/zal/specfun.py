"""Real special functions with explicit error accounting.

Everything downstream (tautological constants, Selberg products, the
arithmetic-degree ledger) is built on four numbers: zeta values, the
derivative zeta'(-1), log(pi) and log Gamma2(1/2), where Gamma2 is the
double Gamma function normalized so that

    exp(zeta'(-1)) = 2^(-1/36) * pi^(1/6) * Gamma2(1/2)^(-2/3)

is an exact identity.  Because zeta'(-1) contaminates every constant in
the pipeline, it is computed by two independent routes (a differentiated
functional equation and the Glaisher/hyperfactorial limit) and the two
must agree before a value is released.  Gamma2(1/2) is computed from the
Barnes G canonical product, *not* from the identity above, so the
identity remains a genuine cross-check.

All evaluations are plain float64 but carry an a-priori truncation bound
(Euler-Maclaurin remainders, geometric tails).  Arbitrary precision is
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "PrecisionBudget",
    "SpecialConstants",
    "BudgetExhaustedError",
    "PoleError",
    "DomainError",
    "riemann_zeta",
    "hurwitz_zeta",
    "zeta_prime_minus1",
    "log_barnes_gamma2_half",
    "euler_gamma",
    "compute_constants",
]


class PoleError(ValueError):
    """Evaluation requested at a pole (s = 1)."""


class DomainError(ValueError):
    """Argument outside the supported real domain."""


class BudgetExhaustedError(RuntimeError):
    """No truncation within _MAX_TERMS terms has a tail bound that meets
    the tolerance, or a cross-check between two routes fails."""


@dataclass(frozen=True)
class PrecisionBudget:
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < math.inf:
            raise DomainError("abs_tol must be positive and finite")


DEFAULT_BUDGET = PrecisionBudget()

# B_2, B_4, ..., B_30 as exact rationals; enough for every Euler-Maclaurin
# tail this module produces at double precision.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
]
_BERN_FLOAT = [float(b) for b in _BERNOULLI]


# Work limit on a truncation depth: a tolerance whose depth lies beyond it
# is refused before any term is summed.
_MAX_TERMS = 10_000_000
_N_CORR = 8  # J, the Euler-Maclaurin correction terms kept


def _em_hurwitz(s: complex, a: float, n_start: int,
                budget: PrecisionBudget) -> tuple[complex, float]:
    """Euler-Maclaurin sum for zeta(s, a), complex-analytic in s.

    Returns (value, remainder_bound).  The remainder bound is the first
    omitted correction term scaled by |s + 2J + 1| / (sigma + 2J + 1),
    valid for sigma + 2J + 1 > 0.  The cutoff n is n_start doubled until
    that bound alone meets abs_tol; the sum is then taken once, at n.
    """
    sigma = s.real
    if sigma + 2 * _N_CORR + 1 <= 0:
        raise BudgetExhaustedError("sigma too negative for the fixed correction depth")
    # B_2j/(2j)! * s(s+1)...(s+2j-2) for j = 1..J+1; they do not depend on n
    coeffs = []
    poch, fact = s, 2.0
    for j in range(1, _N_CORR + 2):
        coeffs.append(_BERN_FLOAT[j - 1] / fact * poch)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    omitted = coeffs.pop()  # j = J + 1
    n = n_start
    while True:
        na = n + a
        bound = (abs(omitted * na ** (-s - 2 * (_N_CORR + 1) + 1))
                 * abs(s + 2 * _N_CORR + 1) / (sigma + 2 * _N_CORR + 1))
        if bound <= budget.abs_tol:
            break
        n *= 2
        if n > _MAX_TERMS:
            raise BudgetExhaustedError(
                f"Euler-Maclaurin cutoff for abs_tol {budget.abs_tol:g} exceeds {_MAX_TERMS} terms")
    head = 0.0 + 0.0j
    for k in range(n):
        head += (k + a) ** (-s)
    tail = na ** (1 - s) / (s - 1) + 0.5 * na ** (-s)
    corr = 0.0 + 0.0j
    for j, c in enumerate(coeffs, 1):
        corr += c * na ** (-s - 2 * j + 1)
    return head + tail + corr, bound


def riemann_zeta(s: float, budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """zeta(s) for real 1 < s < inf; abs_tol bounds the Euler-Maclaurin truncation.

    The pipelines read zeta only at integers s >= 2 (the Barnes series and
    the Hurwitz check), so s = 1 is refused as the pole and every other
    s <= 1, +-inf and nan as outside the domain.
    """
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    if not 1 < s < math.inf:
        raise DomainError(f"zeta(s) is evaluated only for 1 < s < inf, not at s = {s}")
    return _em_hurwitz(complex(s), 1.0, 8, budget)[0].real


def hurwitz_zeta(s: float, a: float, budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """zeta(s, a) for finite real s != 1 and 0 < a < inf (Euler-Maclaurin)."""
    if s == 1:
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if not (math.isfinite(s) and 0 < a < math.inf):
        raise DomainError(f"hurwitz_zeta needs finite s and 0 < a < inf, not s = {s}, a = {a}")
    val, _ = _em_hurwitz(complex(s), float(a), 8, budget)
    return val.real


def euler_gamma(budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """Euler-Mascheroni constant via the harmonic-sum tail expansion."""
    n = 64
    h = sum(1.0 / k for k in range(1, n + 1))
    g = h - math.log(n) - 1.0 / (2 * n)
    corr = 0.0
    for j in range(1, 6):
        corr += _BERN_FLOAT[j - 1] / (2 * j) * n ** (-2 * j)
    # next omitted term bounds the remainder (alternating expansion)
    bound = abs(_BERN_FLOAT[5] / 12 * n ** (-12))
    if bound > budget.abs_tol:
        raise BudgetExhaustedError("gamma tail bound above abs_tol")
    return g + corr


def _zeta_prime_fe_route(budget: PrecisionBudget) -> float:
    """zeta'(-1) from the differentiated functional equation.

    Differentiating log zeta through the reflection formula at s = -1
    (where the cot term vanishes) gives

        zeta'(-1) = (1 - gamma - log(2 pi)) / 12 + zeta'(2) / (2 pi^2),

    with zeta'(2) obtained by a complex-step derivative of the
    Euler-Maclaurin sum (no cancellation error).
    """
    h = 1e-7
    sub_tol = min(budget.abs_tol, 1e-13) * h
    if sub_tol == 0.0:  # abs_tol * h underflows: no cutoff meets it
        raise BudgetExhaustedError("complex-step tolerance abs_tol * 1e-7 underflows to 0")
    sub = PrecisionBudget(abs_tol=sub_tol)
    z, _ = _em_hurwitz(complex(2.0, h), 1.0, 64, sub)
    zeta_prime_2 = z.imag / h
    g = euler_gamma(budget)
    return (1.0 - g - math.log(2 * math.pi)) / 12.0 + zeta_prime_2 / (2 * math.pi ** 2)


def _zeta_prime_glaisher_route(budget: PrecisionBudget) -> float:
    """zeta'(-1) = 1/12 - log A via the hyperfactorial asymptotic.

    log A is extracted from sum_{k<=n} k log k minus its Euler-Maclaurin
    expansion; with f(x) = x log x the odd derivatives are explicit, so
    the subtracted terms and the remainder bound are exact.
    """
    n = 48  # small n keeps the ~n^2 log n cancellation below 1e-13
    s = math.fsum(k * math.log(k) for k in range(2, n + 1))
    main = (n * n / 2 + n / 2 + 1.0 / 12.0) * math.log(n) - n * n / 4
    # j >= 2 corrections: -B_2j/(2j)! * f^(2j-1)(n) with f^(2j-1)(x) = -(2j-3)! x^(2-2j)
    corr = 0.0
    for j in range(2, 6):
        corr += _BERN_FLOAT[j - 1] * math.factorial(2 * j - 3) / math.factorial(2 * j) * n ** (2 - 2 * j)
    bound = abs(_BERN_FLOAT[5] * math.factorial(9) / math.factorial(12) * n ** (-10))
    if bound > budget.abs_tol:
        raise BudgetExhaustedError("hyperfactorial tail bound above abs_tol")
    log_a = s - main + corr
    return 1.0 / 12.0 - log_a


def zeta_prime_minus1(budget: PrecisionBudget = DEFAULT_BUDGET) -> tuple[float, float]:
    """(zeta'(-1), |route gap|) from two independent routes; raises if they disagree."""
    r1 = _zeta_prime_fe_route(budget)
    r2 = _zeta_prime_glaisher_route(budget)
    gap = abs(r1 - r2)
    if gap > 2 * budget.abs_tol:
        raise BudgetExhaustedError(
            f"zeta'(-1) routes disagree: {r1!r} vs {r2!r} beyond 2*abs_tol"
        )
    return 0.5 * (r1 + r2), gap


def log_barnes_gamma2_half(budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """log Gamma2(1/2) from the Barnes G canonical product.

    log G(1+z) = (z/2) log(2 pi) - z(z+1)/2 - gamma z^2/2
                 + sum_{m>=3} (-1)^(m-1) zeta(m-1) z^m / m,   |z| < 1,

    evaluated at z = -1/2; in the normalization fixed by this package
    Gamma2(1/2) = 1/G(1/2).  The tail is bounded by the geometric series
    zeta(2) 2^(-M) / (M+1), which the loop runs down to abs_tol / 4:
    euler_gamma refuses every abs_tol below 4.47e-24, so M <= 75.
    """
    z = -0.5
    g = euler_gamma(budget)
    sub = PrecisionBudget(abs_tol=budget.abs_tol / 8)
    total = 0.5 * z * math.log(2 * math.pi) - z * (z + 1) / 2 - g * z * z / 2
    m = 3
    zpow = z ** 3
    while True:
        total += (-1) ** (m - 1) * riemann_zeta(float(m - 1), sub) * zpow / m
        tail = 1.6449340668482264 * 2.0 ** (-m) / (m + 1)
        if tail <= budget.abs_tol / 4:
            break
        m += 1
        zpow *= z
    return -total  # log Gamma2(1/2) = -log G(1/2)


def voros_residual(zp1: float, log_g2h: float) -> float:
    """|exp(zeta'(-1)) * 2^(1/36) * pi^(-1/6) * Gamma2(1/2)^(2/3) - 1|."""
    return abs(
        math.exp(zp1) * 2.0 ** (1.0 / 36.0) * math.pi ** (-1.0 / 6.0)
        * math.exp(log_g2h) ** (2.0 / 3.0) - 1.0
    )


@dataclass(frozen=True)
class SpecialConstants:
    zeta_prime_minus1: float
    log_gamma2_half: float
    log_pi: float = field(default=math.log(math.pi))

    def __post_init__(self) -> None:
        res = voros_residual(self.zeta_prime_minus1, self.log_gamma2_half)
        if res >= 10 * DEFAULT_BUDGET.abs_tol:
            raise BudgetExhaustedError(
                f"cross-check identity violated: residual {res:.3e}"
            )


def compute_constants() -> SpecialConstants:
    """Build the constant block used by every other module, at the default budget.

    ``SpecialConstants`` itself checks the Voros identity and raises
    BudgetExhaustedError when it fails."""
    return SpecialConstants(zeta_prime_minus1=zeta_prime_minus1()[0],
                            log_gamma2_half=log_barnes_gamma2_half())
