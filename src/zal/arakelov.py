"""Arithmetic-degree ledger: assembling the special value's transcendence class.

Over a number field the arithmetic degree of a metrized line is
adeg c1(L, ||.||) = log ||s||^{-2} for any nonzero section s, read modulo
logs of algebraic numbers.  Four closed-form degrees enter the ledger
for a modular curve of genus g, cusp count n, index m:

    trivial bundle with norm C |.|        ->  -2 log C
    determinant line, L^2 metric          ->  2g log pi - log L   (g >= 1)
    cotangent lines at the cusps          ->  0
    self-intersection of the log-canonical ->  4m (2 zeta'(-1) + zeta(-1))

The determinant-metric rescaling by (E(g,n) Z'(1))^{-1/2} turns the
bundle identity

    12 c1(lambda_Q) + c1(psi_W) = pushforward(c1(omega(cusps))^2) + c1(O(C))

into a linear equation for log Z'(1):

    12 log Z' = self_int - 2 log C - 12 log E - 12 adeg(lambda_L2) - adeg(psi_W),

solved exactly over the rationals.  Reducing modulo log|Qbar^x| yields
the exponent triple (a, b, c) of e^a pi^b Gamma2(1/2)^c L, checked
against the independently derived closed forms

    a = (2g-2+n)/6 - m/36,   b = 1 - 3g + m/9,   c = -4m/9,

which are themselves anchored by the level-2 principal group where the
exact special value forces (b, c) = (5/3, -8/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .lengthspec import GroupKind, GroupSpec, group_invariants
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
    "ArithDegree",
    "SpecialValueExponents",
    "adeg_trivial_bundle",
    "adeg_lambda_L2",
    "adeg_psi_W",
    "self_intersection",
    "assemble_log_zprime",
    "special_value_exponents",
    "closed_form_exponents",
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
EXTENSION_CAVEAT = (
    "level-2 principal group handled by the same 4m-form ledger entry; "
    "certified by the exact-anchor test rather than the congruence-level argument"
)


def _slot_label(spec: GroupSpec) -> str:
    return f"L(0,M[{spec.label()}])"


class HypothesisError(ValueError):
    """Group spec outside the hypotheses of the exponent pipeline."""


def _admissible_provenance(spec: GroupSpec, what: str) -> tuple[str, ...]:
    """Provenance of a ledger entry, or HypothesisError off the pipeline's hypotheses."""
    if not spec.torsion_free:
        raise HypothesisError(f"{spec.label()} has elliptic points; the ledger needs none")
    if spec.kind == GroupKind.PRINCIPAL2:
        return (what, EXTENSION_CAVEAT)
    return (what,)


@dataclass(frozen=True)
class ArithDegree:
    vector: LogLinearForm
    numeric: float | None
    provenance: tuple[str, ...] = ()

    def check_coherence(self, constants: SpecialConstants,
                        slot_values: dict[str, float] | None = None,
                        tol: float = 1e-9) -> None:
        if self.numeric is None:
            return
        val = self.vector.evaluate(constants, slot_values)
        if abs(val - self.numeric) > tol:
            raise ArithmeticError(
                f"vector/numeric incoherence: {val} vs {self.numeric}"
            )


def adeg_trivial_bundle(C: float, form: LogLinearForm,
                        constants: SpecialConstants | None = None) -> ArithDegree:
    """Degree of the trivial line with norm C |.|: the class of -2 log C.

    The degree lives modulo logs of algebraic numbers, so the stored
    numeric is the canonical representative (the reduced vector
    evaluated), which differs from the raw -2 log C by the dropped
    rational multiple of log 2 whenever the form carries one.
    """
    if not C > 0:
        raise ValueError("norm constant must be positive")
    vec = reduce_form(form.scale(-2))
    numeric = None
    if constants is not None:
        numeric = vec.evaluate(constants)
    elif vec == LogLinearForm():
        numeric = 0.0
    return ArithDegree(vector=vec, numeric=numeric,
                       provenance=("trivial bundle, norm constant",))


def adeg_lambda_L2(spec: GroupSpec, l_value: float | None = None) -> ArithDegree:
    """Degree of the determinant line with the L^2 metric.

    Genus 0 contributes the empty eigenform product, degree zero;
    genus >= 1 contributes 2g log pi - log L(0, M), the L-value carried
    symbolically and numerically when supplied.
    """
    g, _, _ = group_invariants(spec)
    if g == 0:
        return ArithDegree(vector=LogLinearForm(), numeric=0.0,
                           provenance=("determinant line, empty eigenbasis",))
    vec = LogLinearForm({LOGPI: 2 * g, _slot_label(spec): -1})
    numeric = None
    if l_value is not None:
        numeric = 2 * g * math.log(math.pi) - math.log(l_value)
    return ArithDegree(vector=vec, numeric=numeric,
                       provenance=("determinant line, L^2 metric",))


def adeg_psi_W(spec: GroupSpec) -> ArithDegree:
    """Degree of the cusp cotangent lines: zero under the torsion-free hypotheses.

    The leading-coefficient argument needs the hyperbolic metric to
    descend from the upper half plane, so the group must have no
    elliptic points; the level-2 principal group is flagged as an
    anchor-certified extension.
    """
    prov = _admissible_provenance(spec, "cusp cotangent lines, leading q-coefficients")
    return ArithDegree(vector=LogLinearForm(), numeric=0.0, provenance=prov)


def self_intersection(spec: GroupSpec) -> ArithDegree:
    """4 m (2 zeta'(-1) + zeta(-1)) with zeta(-1) = -1/12 folded in exactly."""
    prov = _admissible_provenance(spec, "self-intersection of the log-canonical extension")
    return ArithDegree(vector=reduce_form(self_intersection_form(spec)), numeric=None,
                       provenance=prov)


def self_intersection_form(spec: GroupSpec) -> LogLinearForm:
    _, _, m = group_invariants(spec)
    return LogLinearForm({ONE: Rat(-m, 3), ZP1: 8 * m})


def assemble_log_zprime(spec: GroupSpec, constants: SpecialConstants,
                        l_value: float | None = None) -> ArithDegree:
    """Solve the metrized bundle identity for log Z'(1) as an exact vector.

    12 log Z' = self_int + (-2 log C) - 12 log E - 12 adeg(lambda_L2)
                - adeg(psi_W), assembled over the pre-reduction basis and
    reduced at the end; the numeric trace is attached when the L-value
    is available (or no slot is needed).
    """
    psi = adeg_psi_W(spec)  # off-hypothesis groups raise here, not in SurfaceType
    g, n, m = group_invariants(spec)
    surf = SurfaceType(g, n)
    lam = adeg_lambda_L2(spec, l_value)
    pre = (self_intersection_form(spec)
           + log_C_form(surf).scale(-2)
           + log_E_form(surf).scale(-12))
    vec = reduce_form(pre.scale(Rat(1, 12)))
    vec = vec + lam.vector.scale(-1)  # psi term is exactly zero
    slot_values = None
    numeric = None
    if not vec.slots():
        numeric = vec.evaluate(constants)
    elif l_value is not None:
        slot_values = {_slot_label(spec): l_value}
        numeric = vec.evaluate(constants, slot_values)
    prov = (("log Z'(1) assembly",) + psi.provenance[1:] + lam.provenance
            + ("tautological constants C, E",))
    deg = ArithDegree(vector=vec, numeric=numeric, provenance=prov)
    deg.check_coherence(constants, slot_values)
    return deg


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
    hard error, not a warning.
    """
    g, n, m = group_invariants(spec)
    deg = assemble_log_zprime(spec, constants)
    a, b, c = deg.vector[ONE], deg.vector[LOGPI], deg.vector[LOGG2]
    if (a, b, c) != closed_form_exponents(g, n, m):
        raise ArithmeticError(
            f"ledger exponents {(a, b, c)} disagree with closed forms "
            f"{closed_form_exponents(g, n, m)}"
        )
    slots = dict(deg.vector.slots())
    want = {_slot_label(spec): Rat(1)} if g >= 1 else {}
    if slots != want:
        raise ArithmeticError(f"L-slot exponents {slots} != {want}")
    return SpecialValueExponents(a=a, b=b, c=c, l_exponent=deg.vector[_slot_label(spec)],
                                 group=spec)


def predict_zprime(spec: GroupSpec, constants: SpecialConstants,
                   l_value: float | None = None) -> tuple[float, tuple[str, ...]]:
    """Numeric e^a pi^b Gamma2(1/2)^c L^(l_exp), with its caveat strings.

    For the level-11 groups the L-value is computed on demand when not
    supplied; other levels must supply one.
    """
    exps = special_value_exponents(spec, constants)
    caveats = list(exps.caveats) + [ALGEBRAIC_UNIT_CAVEAT]
    log_val = (float(exps.a) + float(exps.b) * constants.log_pi
               + float(exps.c) * constants.log_gamma2_half)
    if exps.l_exponent != 0:
        if l_value is None:
            if spec.p == 11:
                from .modforms import level11_sym2
                sym = level11_sym2()
                l_value = sym.value
                caveats.append(
                    f"L-value computed from the level-11 pipeline "
                    f"(functional-equation residual {sym.fe_residual:.2e})"
                )
            else:
                raise ValueError("no L-value available for this level")
        log_val += float(exps.l_exponent) * math.log(l_value)
    return math.exp(log_val), tuple(caveats)
