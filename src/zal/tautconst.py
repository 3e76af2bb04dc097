"""Tautological surface constants and exact log-linear bookkeeping.

Two closed-form constants are attached to a stable surface type (g, n),
with kappa = 2g - 2 + n:

    log C(g,n) = kappa * (-12 zeta'(-1) + 1/2)
    log E(g,n) = ((g+2-n)/3) log 2 - (n/2) log pi
                 + kappa * (2 zeta'(-1) - 1/4 + (1/2) log(2 pi))

Every constant is carried both as a float and as a ``LogLinearForm``, an
exact sparse rational vector over the basis ONE = 1, LOG2 = log 2,
LOGPI = log pi, ZP1 = zeta'(-1), LOGG2 = log Gamma2(1/2); any other name
is an L-value slot standing for log L.  ``reduce_form`` reads a vector
modulo log|Qbar^x| through one substitution table: log 2 dies (2 is
algebraic) and

    zeta'(-1)  ->  (1/6) log pi - (2/3) log Gamma2(1/2),

the rearranged cross-check identity of :mod:`zal.specfun`.  All vector
arithmetic is exact over ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .specfun import SpecialConstants

__all__ = [
    "SurfaceType",
    "LogLinearForm",
    "ONE",
    "LOG2",
    "LOGPI",
    "ZP1",
    "LOGG2",
    "const_C",
    "const_E",
    "reduce_form",
]

Rat = Fraction
_ZERO = Rat(0)
_LOG2 = math.log(2.0)

ONE = "1"
LOG2 = "log 2"
LOGPI = "log pi"
ZP1 = "zeta'(-1)"
LOGG2 = "log Gamma2(1/2)"
# Evaluation order of the basis; slots follow in name order.
_BASIS = (ONE, LOG2, LOGPI, ZP1, LOGG2)

# reduce_form's substitution table: name -> its image; unlisted names are fixed.
_REDUCTION: dict[str, dict[str, Rat]] = {
    LOG2: {},
    ZP1: {LOGPI: Rat(1, 6), LOGG2: Rat(-2, 3)},
}


class StabilityError(ValueError):
    """Surface type violates 2g - 2 + n > 0."""


@dataclass(frozen=True)
class SurfaceType:
    g: int
    n: int

    def __post_init__(self) -> None:
        if self.g < 0 or self.n < 0:
            raise StabilityError("genus and puncture count must be >= 0")
        if 2 * self.g - 2 + self.n <= 0:
            raise StabilityError(f"unstable surface type (g={self.g}, n={self.n})")

    @property
    def kappa(self) -> int:
        return 2 * self.g - 2 + self.n


@dataclass(frozen=True, init=False)
class LogLinearForm:
    """Exact rational vector: sum of coefficient * name over basis names and L slots.

    ``terms`` is the sorted tuple of (name, Fraction) pairs; zero
    coordinates are not stored.  ``v[name]`` is a coordinate (0 when
    absent) and ``slots()`` the L-value slot coordinates.  The basis
    elements are *treated* as Q-linearly independent mod log|Qbar^x|
    (actual independence is conjectural, which downstream reports flag).
    """

    terms: tuple[tuple[str, Rat], ...]

    def __init__(self, coords: Mapping[str, object] | None = None) -> None:
        pairs = sorted((name, Rat(c)) for name, c in (coords or {}).items())
        index = {name: c for name, c in pairs if c}
        object.__setattr__(self, "terms", tuple(index.items()))
        object.__setattr__(self, "_index", index)

    def __getitem__(self, name: str) -> Rat:
        return self._index.get(name, _ZERO)

    def slots(self) -> tuple[tuple[str, Rat], ...]:
        return tuple((name, c) for name, c in self.terms if name not in _BASIS)

    def __add__(self, other: "LogLinearForm") -> "LogLinearForm":
        out = dict(self._index)
        for name, c in other.terms:
            out[name] = out.get(name, _ZERO) + c
        return LogLinearForm(out)

    def scale(self, q) -> "LogLinearForm":
        q = Rat(q)
        return LogLinearForm({name: q * c for name, c in self.terms})

    def evaluate(self, constants: SpecialConstants,
                 slot_values: Mapping[str, float] | None = None) -> float:
        """Numeric value of the form; slot names need their L-values supplied."""
        basis = (1.0, _LOG2, constants.log_pi, constants.zeta_prime_minus1,
                 constants.log_gamma2_half)
        total = 0.0
        for name, value in zip(_BASIS, basis):
            if name in self._index:
                total += float(self._index[name]) * value
        for name, c in self.slots():
            if slot_values is None or name not in slot_values:
                raise KeyError(f"no numeric value supplied for slot {name!r}")
            total += float(c) * math.log(slot_values[name])
        return total


def reduce_form(form: LogLinearForm) -> LogLinearForm:
    """Read a form modulo log|Qbar^x|, through the table ``_REDUCTION``.

    Drops log 2 and rewrites zeta'(-1) as (1/6) log pi - (2/3) log
    Gamma2(1/2); every other name maps to itself, so the map is linear,
    exact, and the identity on its image.
    """
    out: dict[str, Rat] = {}
    for name, c in form.terms:
        for target, q in _REDUCTION.get(name, {name: 1}).items():
            out[target] = out.get(target, _ZERO) + q * c
    return LogLinearForm(out)


def log_C_form(t: SurfaceType) -> LogLinearForm:
    k = t.kappa
    # zeta'(-1)/zeta(-1) = -12 zeta'(-1), with zeta(-1) = -1/12 exact
    return LogLinearForm({ONE: Rat(k, 2), ZP1: -12 * k})


def log_E_form(t: SurfaceType) -> LogLinearForm:
    k = t.kappa
    return LogLinearForm({
        ONE: Rat(-k, 4),
        LOG2: Rat(t.g + 2 - t.n, 3) + Rat(k, 2),
        LOGPI: Rat(-t.n, 2) + Rat(k, 2),
        ZP1: 2 * k,
    })


def const_C(t: SurfaceType, constants: SpecialConstants) -> tuple[float, LogLinearForm]:
    """C(g,n) as (numeric, exact log-linear form)."""
    form = log_C_form(t)
    return math.exp(form.evaluate(constants)), form


def const_E(t: SurfaceType, constants: SpecialConstants) -> tuple[float, LogLinearForm]:
    """E(g,n) as (numeric, exact log-linear form)."""
    form = log_E_form(t)
    return math.exp(form.evaluate(constants)), form
