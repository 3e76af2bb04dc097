"""Arithmetic-degree ledger: the special value's transcendence class as exact vectors.

Over a number field the arithmetic degree of a metrized line is
adeg c1(L, ||.||) = log ||s||^{-2} for any nonzero section s, read modulo
logs of algebraic numbers.  Every entry of the ledger is an exact
``LogLinearForm``; for a modular curve of genus g, cusp count n, index m:

    trivial bundle with norm C |.|        ->  -2 log C
    determinant line, L^2 metric          ->  2g log pi - log L   (g >= 1)
    cotangent lines at the cusps (psi_W)  ->  0
    self-intersection of the log-canonical ->  4m (2 zeta'(-1) + zeta(-1))

psi_W vanishes because the hyperbolic metric descends from the upper
half plane; that needs a group without elliptic points, the ledger's
guard (``HypothesisError``).  The determinant-metric rescaling by
(E(g,n) Z'(1))^{-1/2} turns the bundle identity

    12 c1(lambda_Q) + c1(psi_W) = pushforward(c1(omega(cusps))^2) + c1(O(C))

into a linear equation for log Z'(1):

    12 log Z' = self_int - 2 log C - 12 log E - 12 adeg(lambda_L2) - adeg(psi_W),

solved exactly over the rationals.  Reducing modulo log|Qbar^x| yields
the exponent triple (a, b, c) of e^a pi^b Gamma2(1/2)^c L, checked
against the independently derived closed forms

    a = (2g-2+n)/6 - m/36,   b = 1 - 3g + m/9,   c = -4m/9,

which are themselves anchored by the level-2 principal group where the
exact special value forces (b, c) = (5/3, -8/3); that group is
certified by this anchor rather than by the congruence-level argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .lengthspec import GroupSpec, group_invariants
from .specfun import SpecialConstants
from .tautconst import (
    LOGG2,
    LOGPI,
    ONE,
    ZP1,
    LogLinearForm,
    SurfaceType,
    log_C_form,
    log_E_form,
    reduce_form,
)

__all__ = [
    "SpecialValueExponents",
    "lambda_L2_form",
    "self_intersection_form",
    "assemble_log_zprime",
    "special_value_exponents",
    "closed_form_exponents",
    "zprime_prediction",
    "predict_zprime",
    "INDEPENDENCE_CAVEAT",
    "ALGEBRAIC_UNIT_CAVEAT",
]

Rat = Fraction

INDEPENDENCE_CAVEAT = (
    "exponents are coordinates w.r.t. {1, log pi, log Gamma2(1/2)} treated as "
    "formally Q-linearly independent modulo logs of algebraic numbers; actual "
    "independence is conjectural"
)
ALGEBRAIC_UNIT_CAVEAT = (
    "prediction is defined up to multiplication by a nonzero algebraic number"
)
NO_L_VALUE_CAVEAT = (
    "no L-value pipeline for this level; exponents are exact, prediction omitted"
)


def _slot_label(spec: GroupSpec) -> str:
    return f"L(0,M[{spec.label()}])"


class HypothesisError(ValueError):
    """Group spec outside the hypotheses of the exponent pipeline."""


def lambda_L2_form(spec: GroupSpec) -> LogLinearForm:
    """Degree of the determinant line with the L^2 metric.

    Genus 0 contributes the empty eigenform product, degree zero;
    genus >= 1 contributes 2g log pi - log L(0, M), the L-value as a slot.
    """
    g, _, _ = group_invariants(spec)
    if g == 0:
        return LogLinearForm()
    return LogLinearForm({LOGPI: 2 * g, _slot_label(spec): -1})


def self_intersection_form(spec: GroupSpec) -> LogLinearForm:
    """4 m (2 zeta'(-1) + zeta(-1)) with zeta(-1) = -1/12 folded in exactly."""
    _, _, m = group_invariants(spec)
    return LogLinearForm({ONE: Rat(-m, 3), ZP1: 8 * m})


def assemble_log_zprime(spec: GroupSpec) -> LogLinearForm:
    """Solve the metrized bundle identity for log Z'(1) as an exact vector.

    12 log Z' = self_int + (-2 log C) - 12 log E - 12 adeg(lambda_L2)
                - adeg(psi_W), assembled over the pre-reduction basis and
    reduced at the end.  The psi_W term is zero under the torsion-free
    hypothesis, checked first: a group with elliptic points raises
    HypothesisError before its surface type is formed.
    """
    if not spec.torsion_free:
        raise HypothesisError(f"{spec.label()} has elliptic points; the ledger needs none")
    g, n, _ = group_invariants(spec)
    surf = SurfaceType(g, n)
    pre = (self_intersection_form(spec)
           + log_C_form(surf).scale(-2)
           + log_E_form(surf).scale(-12))
    return reduce_form(pre.scale(Rat(1, 12))) + lambda_L2_form(spec).scale(-1)


@dataclass(frozen=True)
class SpecialValueExponents:
    a: Rat
    b: Rat
    c: Rat
    l_exponent: Rat
    group: GroupSpec
    caveats: tuple[str, ...] = field(default=(INDEPENDENCE_CAVEAT,))


def closed_form_exponents(g: int, n: int, m: int) -> tuple[Rat, Rat, Rat]:
    """Independently derived closed forms, anchored at the level-2 group."""
    kappa = 2 * g - 2 + n
    return (Rat(kappa, 6) - Rat(m, 36), 1 - 3 * g + Rat(m, 9), Rat(-4 * m, 9))


def special_value_exponents(spec: GroupSpec,
                            constants: SpecialConstants) -> SpecialValueExponents:
    """(a, b, c) with Z'(1) ~ e^a pi^b Gamma2(1/2)^c L, exact rationals.

    The ledger assembly must reproduce the closed forms; a mismatch is a
    hard error, not a warning.  ``constants`` is unused, since the
    exponents are exact; the parameter is kept for existing callers.
    """
    g, n, m = group_invariants(spec)
    vec = assemble_log_zprime(spec)
    a, b, c = vec[ONE], vec[LOGPI], vec[LOGG2]
    if (a, b, c) != closed_form_exponents(g, n, m):
        raise ArithmeticError(
            f"ledger exponents {(a, b, c)} disagree with closed forms "
            f"{closed_form_exponents(g, n, m)}"
        )
    slots = dict(vec.slots())
    want = {_slot_label(spec): Rat(1)} if g >= 1 else {}
    if slots != want:
        raise ArithmeticError(f"L-slot exponents {slots} != {want}")
    return SpecialValueExponents(a=a, b=b, c=c, l_exponent=vec[_slot_label(spec)],
                                 group=spec)


def _slot_l_value(spec: GroupSpec) -> tuple[float, float, tuple[str, ...]] | None:
    """The slot's L-value, est_error and caveats; None at a level with no modeled newform."""
    from .modforms import newform_sym2  # loads numpy and scipy: only when a slot is asked for
    sym = newform_sym2(spec.level)
    if sym is None:
        return None
    return sym.value, sym.est_error, (
        f"L-value computed from the level-{spec.level} pipeline "
        f"(functional-equation residual {sym.fe_residual:.2e})",
        "the bound propagates the L-value's est_error, a heuristic residual",
    )


def zprime_prediction(exps: SpecialValueExponents, constants: SpecialConstants,
                      l_value: float | None = None,
                      ) -> tuple[float | None, float | None, tuple[str, ...]]:
    """e^a pi^b Gamma2(1/2)^c L^(l_exp), its relative error and its caveats.

    The relative error is a 1e-9 floor for the float evaluation plus,
    when the slot is filled here, the L-value's est_error carried
    through its exponent.  A supplied ``l_value`` is taken as exact.
    Without one, a level with no L-value pipeline gives (None, None,
    caveats).
    """
    log_val = (float(exps.a) + float(exps.b) * constants.log_pi
               + float(exps.c) * constants.log_gamma2_half)
    rel_err = 1e-9
    slot_caveats: tuple[str, ...] = ()
    if exps.l_exponent != 0:
        if l_value is None:
            slot = _slot_l_value(exps.group)
            if slot is None:
                return None, None, exps.caveats + (NO_L_VALUE_CAVEAT,)
            l_value, l_error, slot_caveats = slot
            rel_err += abs(float(exps.l_exponent)) * l_error / l_value
        log_val += float(exps.l_exponent) * math.log(l_value)
    return (math.exp(log_val), rel_err,
            exps.caveats + (ALGEBRAIC_UNIT_CAVEAT,) + slot_caveats)


def predict_zprime(spec: GroupSpec, constants: SpecialConstants,
                   l_value: float | None = None) -> tuple[float, tuple[str, ...]]:
    """Numeric e^a pi^b Gamma2(1/2)^c L^(l_exp), with its caveat strings.

    L is L(2, Sym^2 f) of the newform f of level N, with conductor N or
    N^2, bad root none, +-1 or +-N and sign +-1 fixed by
    ``modforms.sym2_L_value``.  Unless supplied it is computed where
    ``modforms`` has f; elsewhere ValueError.
    """
    value, _, caveats = zprime_prediction(special_value_exponents(spec, constants),
                                          constants, l_value)
    if value is None:
        raise ValueError("no L-value available for this level")
    return value, caveats
