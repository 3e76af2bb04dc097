"""Primitive geodesic length spectra of the modular group and congruence subgroups.

The primitive length spectrum of the modular surface is enumerated
through the classical dictionary between hyperbolic conjugacy classes of
trace t and cycles of Gauss-reduced indefinite binary quadratic forms of
discriminant t^2 - 4.  Two traps are handled explicitly:

* a cycle of any content is a *primitive group element* only when the
  product of the rho steps once around it, which generates the
  automorphs of its forms, has trace +-t; a cycle of content u > 1 whose
  step product has a smaller trace is a proper power and must not be
  counted;
* equivalence of forms is proper (SL2) equivalence, i.e. cycles, not
  ambiguous GL2 classes.

The convention is the standard one: primitive *oriented* closed
geodesics, equivalently conjugacy classes of primitive hyperbolic
elements; length = 2 arccosh(t/2).

The number of primitive classes of each trace t and content u comes
from Dirichlet's class-number formula with certified rounding
(``classnum``); the cycles remain its exact reference and fallback, and
give explicit class representatives.

Subgroup spectra come from the covering of the modular surface: a
primitive ambient class M of trace t acts on the cosets of the subgroup,
and each orbit of size k contributes one primitive class of trace
T_k(t) = tr M^k.  The enumeration is complete up to max_trace because
T_k(t) grows with k.  Every group here contains the principal congruence
subgroup of level N (1, 2 or p), so the orbit sizes depend only on M mod
N up to GL2(Z/N) conjugation, and that class is fixed by (t mod N, N | u),
u the content of M's fixed-point form: M is +-I mod N exactly when N | u,
and otherwise conjugate to the companion matrix of x^2 - t x + 1
(Fulton-Harris, Representation Theory, 5.2).  Every spectrum is thus a
sum over class counts per (t, u) and one orbit-size table per group;
explicit lifting is kept only for subgroup class representatives.

Everything here is exact integer arithmetic except the final lengths.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd, isqrt
from typing import Iterable, Iterator

__all__ = [
    "GroupKind",
    "GroupSpec",
    "GeodesicClass",
    "LengthSpectrum",
    "group_invariants",
    "class_number_indefinite",
    "modular_spectrum",
    "subgroup_spectrum",
    "subgroup_class_representatives",
    "ambient_classes",
    "trace_of_power",
    "spectrum_to_csv",
]

Mat = tuple[int, int, int, int]  # row-major 2x2 integer matrix
Form = tuple[int, int, int]      # (a, b, c) <-> a x^2 + b xy + c y^2

M_ID: Mat = (1, 0, 0, 1)


class GroupKind(Enum):
    FULL = "full"
    PRINCIPAL2 = "gamma2"
    GAMMA0 = "gamma0"
    GAMMA1 = "gamma1"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class GroupSpec:
    kind: GroupKind
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (GroupKind.GAMMA0, GroupKind.GAMMA1):
            if self.p is None or not _is_prime(self.p) or self.p < 11:
                raise ValueError(f"{self.kind.value} needs a prime level p >= 11")
        elif self.p is not None:
            raise ValueError(f"{self.kind.value} takes no level")

    @classmethod
    def full(cls) -> "GroupSpec":
        return cls(GroupKind.FULL)

    @classmethod
    def principal2(cls) -> "GroupSpec":
        return cls(GroupKind.PRINCIPAL2)

    @classmethod
    def gamma0(cls, p: int) -> "GroupSpec":
        return cls(GroupKind.GAMMA0, p)

    @classmethod
    def gamma1(cls, p: int) -> "GroupSpec":
        return cls(GroupKind.GAMMA1, p)

    @property
    def torsion_free(self) -> bool:
        """True when the image in PSL2(Z) has no elliptic elements."""
        if self.kind == GroupKind.FULL:
            return False
        if self.kind == GroupKind.PRINCIPAL2:
            return True
        if self.kind == GroupKind.GAMMA1:
            return True  # p >= 11 enforced above
        return self.p % 12 == 11  # nu2 = nu3 = 0 exactly then

    def label(self) -> str:
        if self.p is not None:
            return f"{self.kind.value}({self.p})"
        return self.kind.value


def _no_level(spec: GroupSpec) -> ValueError:
    """The error for a Gamma0 / Gamma1 spec that lost its level p.

    Callers test ``spec.p is None`` inline, so ``_label_act``, which runs
    once per coset for every coset table and coset permutation built,
    pays no extra call.
    """
    return ValueError(f"{spec.kind.value} spec has no level p")


def group_invariants(spec: GroupSpec) -> tuple[int, int, int]:
    """(genus, cusps, index of the image in PSL2(Z)).

    The full group is the degree-1 ambient orbifold (g=0, n=1, m=1); it
    is not a stable surface type and is only used as a covering base.
    """
    if spec.kind == GroupKind.FULL:
        return 0, 1, 1
    if spec.kind == GroupKind.PRINCIPAL2:
        return 0, 3, 6
    p = spec.p
    if p is None:
        raise _no_level(spec)
    if spec.kind == GroupKind.GAMMA0:
        m = p + 1
        nu2 = 1 + (1 if p % 4 == 1 else -1)
        nu3 = 1 + (1 if p % 3 == 1 else -1)
        num = m - 3 * nu2 - 4 * nu3 - 6 * 2 + 12
        if num % 12:
            raise ValueError("genus formula did not give an integer")
        return num // 12, 2, m
    # GAMMA1, p >= 11: no torsion, cusps p-1, PSL2 index (p^2-1)/2
    m = (p * p - 1) // 2
    n = p - 1
    num = 12 + m - 6 * n
    if num % 12:
        raise ValueError("genus formula did not give an integer")
    return num // 12, n, m


# ---------------------------------------------------------------------------
# indefinite binary quadratic forms


def is_discriminant(D: int) -> bool:
    return D > 0 and D % 4 in (0, 1) and isqrt(D) ** 2 != D


def is_reduced(form: Form, D: int) -> bool:
    """Gauss-reduced: |sqrt(D) - 2|a|| < b < sqrt(D), exact integer test."""
    a, b, c = form
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    if (ta + b) ** 2 <= D:
        return False
    if ta > b and (ta - b) ** 2 >= D:
        return False
    return True


def reduced_forms(D: int) -> list[Form]:
    """All Gauss-reduced forms of discriminant D (any content)."""
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a positive non-square discriminant")
    out: list[Form] = []
    r = isqrt(D)
    for b in range(1, r + 1):
        if (D - b * b) % 4:
            continue
        ac = (b * b - D) // 4  # negative
        m = -ac
        for a in _signed_divisors(m):
            c = ac // a
            if is_reduced((a, b, c), D):
                out.append((a, b, c))
    return out


def _signed_divisors(m: int) -> Iterator[int]:
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            yield d
            yield -d
            e = m // d
            if e != d:
                yield e
                yield -e


def rho_step(form: Form, D: int) -> tuple[Form, Mat]:
    """Right neighbour g in the reduction cycle and the step S = [[0,-1],[1,s]].

    g is the form Q(S (x, y)); the step is defined for any form with
    c != 0 and maps reduced forms to reduced forms.
    """
    a, b, c = form
    tc = 2 * abs(c)
    r = isqrt(D)  # floor(sqrt(D)); b' < sqrt(D) means b' <= r
    b2 = -b % tc
    b2 += ((r - b2) // tc) * tc  # largest value <= r in the class
    c2 = (b2 * b2 - D) // (4 * c)
    return (c, b2, c2), (0, -1, 1, (b + b2) // (2 * c))


def _cycle(start: Form, D: int) -> tuple[list[Form], Mat]:
    """The rho-cycle of a reduced form and the product of its steps.

    The product generates, up to sign, the automorphs of ``start``
    (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6; Cohen, GTM 138,
    5.7).  rho permutes the finitely many reduced forms of D, so the walk
    comes back to ``start``.
    """
    if not is_reduced(start, D):
        raise ValueError(f"{start} is not reduced at D={D}")
    forms = [start]
    cur, M = rho_step(start, D)
    while cur != start:
        forms.append(cur)
        cur, step = rho_step(cur, D)
        M = mat_mul(M, step)
    return forms, M


def _cycles(forms: Iterable[Form], D: int) -> Iterator[tuple[list[Form], Mat]]:
    """The rho-cycles of the given reduced forms with their step products,
    each started at its least form, in the order of those forms."""
    remaining = set(forms)
    for start in sorted(remaining):
        if start not in remaining:
            continue
        cyc, M = _cycle(start, D)
        if not remaining.issuperset(cyc):
            raise RuntimeError(f"rho walk left the given forms at D={D}")
        remaining.difference_update(cyc)
        yield cyc, M


def form_cycles(forms: Iterable[Form], D: int) -> list[list[Form]]:
    """Partition reduced forms into rho-cycles."""
    return [cyc for cyc, _ in _cycles(forms, D)]


def class_number_indefinite(D: int) -> int:
    """Number of reduction cycles of discriminant D, all contents included."""
    return len(form_cycles(reduced_forms(D), D))


def pell_fundamental(d0: int) -> tuple[int, int]:
    """Fundamental solution (T, U), T, U > 0, of T^2 - d0 U^2 = 4.

    The step product of the cycle of the principal reduced form (1, b, c)
    is, up to sign, [[(T - bU)/2, -cU], [U, (T + bU)/2]].
    """
    if not is_discriminant(d0):
        raise ValueError(f"{d0} is not a valid discriminant")
    r = isqrt(d0)
    b = r if (r - d0) % 2 == 0 else r - 1
    M = _cycle((1, b, (b * b - d0) // 4), d0)[1]
    return abs(M[0] + M[3]), abs(M[2])


# ---------------------------------------------------------------------------
# conjugacy classes of the modular group


def form_of_matrix(M: Mat) -> Form:
    """Fixed-point form (c, d-a, -b) of a hyperbolic matrix [[a,b],[c,d]]."""
    a, b, c, d = M
    return (c, d - a, -b)


def matrix_of_form(form: Form, t: int) -> Mat:
    """The trace-t automorph [[ (t-b)/2, -c ], [ a, (t+b)/2 ]] of (a,b,c)."""
    a, b, c = form
    if (t - b) % 2:
        raise ValueError("trace/parity mismatch")
    return ((t - b) // 2, -c, a, (t + b) // 2)


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_inv(x: Mat) -> Mat:
    a, b, c, d = x
    if a * d - b * c != 1:
        raise ValueError("not unimodular")
    return (d, -b, -c, a)


def mat_pow(x: Mat, k: int) -> Mat:
    out = M_ID
    base = x
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def trace_of_power(t: int, k: int) -> int:
    """trace(M^k) from trace(M) = t via the Chebyshev recursion."""
    if k == 0:
        return 2
    prev, cur = 2, t
    for _ in range(k - 1):
        prev, cur = cur, t * cur - prev
    return cur


def ambient_classes(t: int) -> list[Mat]:
    """Representatives of the primitive hyperbolic classes of trace t.

    One cycle of reduced forms of discriminant t^2-4, any content, per
    class.  A cycle is kept only when its step product, the fundamental
    automorph of its forms, has trace +-t; otherwise the class of trace t
    is a proper power.
    """
    if t < 3:
        return []
    D = t * t - 4
    return [matrix_of_form(forms[0], t) for forms, M in _cycles(reduced_forms(D), D)
            if abs(M[0] + M[3]) == t]


def _cycle_counts(t: int) -> tuple[tuple[int, int], ...]:
    """(content u, number of primitive classes) pairs of trace t, counted on
    the reduction cycles: the exact reference and fallback of the
    class-number route."""
    return tuple(sorted(Counter(gcd(*form_of_matrix(M)) for M in ambient_classes(t)).items()))


def geodesic_length(t: int) -> float:
    return 2.0 * math.acosh(t / 2.0)


@dataclass(frozen=True)
class GeodesicClass:
    trace: int
    length: float
    multiplicity: int

    def __post_init__(self) -> None:
        if self.trace < 3 or self.multiplicity < 1 or not self.length > 0:
            raise ValueError("invalid geodesic class")


@dataclass(frozen=True)
class LengthSpectrum:
    group: GroupSpec
    max_trace: int
    entries: tuple[GeodesicClass, ...]

    @property
    def torsion_flagged(self) -> bool:
        return not self.group.torsion_free

    def counting(self, L: float) -> int:
        """N(L): number of primitive classes of length <= L, with multiplicity."""
        return sum(e.multiplicity for e in self.entries if e.length <= L)

    def filtered(self, max_trace: int) -> "LengthSpectrum":
        """The spectrum cut at max_trace, which may not exceed the trace
        to which this one is complete."""
        if max_trace > self.max_trace:
            raise ValueError(f"cannot filter a spectrum complete to trace "
                             f"{self.max_trace} up to {max_trace}")
        return LengthSpectrum(self.group, max_trace,
                              tuple(e for e in self.entries if e.trace <= max_trace))

    def total_classes(self) -> int:
        return sum(e.multiplicity for e in self.entries)


def _entries_from_counts(counts: dict[int, int]) -> tuple[GeodesicClass, ...]:
    return tuple(GeodesicClass(t, geodesic_length(t), m)
                 for t, m in sorted(counts.items()) if m > 0)


# ---------------------------------------------------------------------------
# coset actions of the congruence subgroups


def contains(spec: GroupSpec, M: Mat) -> bool:
    """Membership of +-M in the subgroup, M an SL2(Z) matrix."""
    a, b, c, d = M
    if spec.kind == GroupKind.FULL:
        return True
    if spec.kind == GroupKind.PRINCIPAL2:
        return b % 2 == 0 and c % 2 == 0 and a % 2 == 1 and d % 2 == 1
    p = spec.p
    if p is None:
        raise _no_level(spec)
    if c % p:
        return False
    if spec.kind == GroupKind.GAMMA0:
        return True
    return (a % p == 1 and d % p == 1) or (a % p == p - 1 and d % p == p - 1)


# the generators T and S of SL2(Z)
_GENS: tuple[Mat, Mat] = ((1, 1, 0, 1), (0, -1, 1, 0))

# label of the identity coset under each kind's invariant in _label_act
_ID_LABEL = {GroupKind.FULL: 0, GroupKind.PRINCIPAL2: M_ID,
             GroupKind.GAMMA0: (0, 1), GroupKind.GAMMA1: (0, 1)}


@cache
def _coset_table(spec: GroupSpec) -> tuple[list, dict, list[Mat]]:
    """(labels, label->index, representative matrices), index m entries.

    Built once per group and shared by every caller, which must not
    mutate it.

    The table is the orbit of the identity's label under right
    multiplication by T and S, walked breadth first: each new label
    takes the next index, and its representative is the representative
    of the label it was reached from times the generator.  T and S
    generate SL2(Z), so the walk reaches every coset; there are finitely
    many labels, so it ends.  Its size is checked against the index
    formula of ``group_invariants``, which does not use the walk.
    """
    lab0 = _ID_LABEL[spec.kind]
    labels: list = [lab0]
    index: dict = {lab0: 0}
    reps: list[Mat] = [M_ID]
    for i, lab in enumerate(labels):  # labels grows while it is walked
        for g in _GENS:
            nxt = _label_act(spec, lab, g)
            if nxt not in index:
                index[nxt] = len(labels)
                labels.append(nxt)
                reps.append(mat_mul(reps[i], g))
    m = group_invariants(spec)[2]
    if len(labels) != m:
        raise ArithmeticError(f"{spec.label()}: coset walk found {len(labels)} "
                              f"cosets, index formula gives {m}")
    return labels, index, reps


def _label(spec: GroupSpec, M: Mat):
    """Label of the coset of M."""
    return _label_act(spec, _ID_LABEL[spec.kind], M)


def _label_act(spec: GroupSpec, lab, M: Mat):
    """Label of (coset rep with label lab) * M, computed on labels only.

    The label of a coset (Gamma g) is a right-multiplication-equivariant
    invariant of g: the matrix mod 2 for the principal level-2 group,
    the bottom row projectively mod p for Gamma0, the bottom row mod p
    up to sign for Gamma1.
    """
    a, b, c, d = M
    if spec.kind == GroupKind.FULL:
        return 0
    if spec.kind == GroupKind.PRINCIPAL2:
        la, lb, lc, ld = lab
        return ((la * a + lb * c) % 2, (la * b + lb * d) % 2,
                (lc * a + ld * c) % 2, (lc * b + ld * d) % 2)
    p = spec.p
    if p is None:
        raise _no_level(spec)
    lc, ld = lab
    nc, nd = (lc * a + ld * c) % p, (lc * b + ld * d) % p
    if spec.kind == GroupKind.GAMMA0:
        if nc == 0:
            return (0, 1)
        return (1, nd * pow(nc, -1, p) % p)
    return min((nc, nd), (-nc % p, -nd % p))


def coset_permutation(spec: GroupSpec, M: Mat) -> list[int]:
    """Permutation induced by right multiplication by M on the coset labels."""
    labels, index, _ = _coset_table(spec)
    return [index[_label_act(spec, lab, M)] for lab in labels]


def _orbits(perm: list[int]) -> Iterator[tuple[int, int]]:
    """(first index, size) of each orbit of the permutation, by first index."""
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        k = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            k += 1
        yield i, k


@cache
def _orbit_sizes(spec: GroupSpec, r: int, scalar: bool) -> tuple[int, ...]:
    """Sorted coset-orbit sizes shared by every primitive ambient class of
    trace r mod N that is +-I mod N (``scalar``) or is not.

    One stand-in per key: the identity, which acts on the cosets as -I
    does, or the companion matrix (0, -1, 1, r).
    """
    M = M_ID if scalar else (0, -1, 1, r)
    return tuple(sorted(k for _, k in _orbits(coset_permutation(spec, M))))


def _spectrum(spec: GroupSpec, max_trace: int) -> LengthSpectrum:
    """The counting loop of both spectrum functions: the h ambient classes
    of trace t and content u add h classes of trace T_k(t) per orbit size k."""
    N = {GroupKind.FULL: 1, GroupKind.PRINCIPAL2: 2}.get(spec.kind, spec.p)
    if N is None:
        raise _no_level(spec)
    from . import classnum  # loads numpy and scipy: only where a spectrum is counted

    rows = classnum.CLASS_COUNTS.upto(max_trace)
    counts: dict[int, int] = {}
    for t in range(3, max_trace + 1):
        for u, h in rows[t]:
            for k in _orbit_sizes(spec, t % N, u % N == 0):
                tk = trace_of_power(t, k)
                if tk > max_trace:
                    break
                counts[tk] = counts.get(tk, 0) + h
    return LengthSpectrum(spec, max_trace, _entries_from_counts(counts))


def modular_spectrum(max_trace: int) -> LengthSpectrum:
    """Merged primitive spectrum of the modular surface up to trace max_trace."""
    return _spectrum(GroupSpec.full(), max_trace)


def subgroup_spectrum(spec: GroupSpec, max_trace: int) -> LengthSpectrum:
    """Primitive length spectrum of the subgroup surface up to trace max_trace.

    Complete by construction: any subgroup class of trace <= max_trace
    lies over an ambient class of trace <= max_trace.
    """
    return _spectrum(spec, max_trace)


def subgroup_class_representatives(spec: GroupSpec, max_trace: int) -> dict[int, list[Mat]]:
    """Explicit subgroup-conjugacy class representatives, keyed by trace.

    For each ambient class [M] and each coset orbit of size k with orbit
    member label l and representative x_l, the matrix x_l M^k x_l^{-1}
    lies in the subgroup and represents one primitive class.
    """
    reps = _coset_table(spec)[2]
    out: dict[int, list[Mat]] = {}
    for t in range(3, max_trace + 1):
        for M in ambient_classes(t):
            for i, k in _orbits(coset_permutation(spec, M)):
                tk = trace_of_power(t, k)
                if tk > max_trace:
                    continue
                x = reps[i]
                W = mat_mul(mat_mul(x, mat_pow(M, k)), mat_inv(x))
                if not contains(spec, W):
                    raise RuntimeError("lifted representative escaped the subgroup")
                out.setdefault(tk, []).append(W)
    return out


def spectrum_to_csv(spectrum: LengthSpectrum) -> str:
    """CSV export: header plus (trace, length, multiplicity) rows."""
    lines = ["trace,length,multiplicity"]
    for e in spectrum.entries:
        lines.append(f"{e.trace},{e.length:.17g},{e.multiplicity}")
    return "\n".join(lines) + "\n"
