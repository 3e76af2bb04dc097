"""Primitive geodesic length spectra of the modular group and congruence subgroups.

The convention is the standard one: primitive *oriented* closed
geodesics, equivalently conjugacy classes of primitive hyperbolic
elements; length = 2 arccosh(t/2).

The number of primitive classes of each trace t and content u, the
content of their fixed-point form, comes from Dirichlet's class-number
formula with certified rounding (``classnum``).  The reduction cycles
that check those counts, serve as their fallback and give explicit class
representatives live in ``oracles``.

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
sum over class counts per (t, u) and one orbit-size table per group.
Genus, cusps and elliptic points are read off the same coset table.

Everything here is exact integer arithmetic except the final lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterator

__all__ = [
    "GroupKind",
    "GroupSpec",
    "GeodesicClass",
    "LengthSpectrum",
    "group_invariants",
    "modular_spectrum",
    "subgroup_spectrum",
    "trace_of_power",
    "spectrum_to_csv",
]

Mat = tuple[int, int, int, int]  # row-major 2x2 integer matrix

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
        """True when the image in PSL2(Z) has no elliptic elements, that is
        nu2 = nu3 = 0, or by Riemann-Hurwitz 12 g = 12 + m - 6 n."""
        g, n, m = group_invariants(self)
        return 12 * g == 12 + m - 6 * n

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


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def trace_of_power(t: int, k: int) -> int:
    """trace(M^k) from trace(M) = t via the Chebyshev recursion."""
    if k == 0:
        return 2
    prev, cur = 2, t
    for _ in range(k - 1):
        prev, cur = cur, t * cur - prev
    return cur


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


def _index(spec: GroupSpec) -> int:
    """Closed-form index of the image in PSL2(Z), to check the coset walk."""
    if spec.kind == GroupKind.FULL:
        return 1
    if spec.kind == GroupKind.PRINCIPAL2:
        return 6
    p = spec.p  # the walk has already rejected a missing level
    return p + 1 if spec.kind == GroupKind.GAMMA0 else (p * p - 1) // 2


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
    many labels, so it ends.  Its size is checked against ``_index``,
    which does not use the walk; the invariants are read off the table.
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
    m = _index(spec)
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
def group_invariants(spec: GroupSpec) -> tuple[int, int, int]:
    """(genus, cusps, index of the image in PSL2(Z)), read off the coset table:
    m cosets, n cycles of T, and 12 g = 12 + m - 3 nu2 - 4 nu3 - 6 n by
    Riemann-Hurwitz (Shimura, Arithmetic Theory of Automorphic Functions, 1.40).

    The full group is the degree-1 ambient orbifold (g=0, n=1, m=1); it
    is not a stable surface type and is only used as a covering base.
    """
    m = len(_coset_table(spec)[0])
    n = sum(1 for _ in _orbits(coset_permutation(spec, _GENS[0])))
    # nu2, nu3: the cosets fixed by S and by ST, one per elliptic point of order 2, 3
    nu2, nu3 = (sum(i == j for i, j in enumerate(coset_permutation(spec, M)))
                for M in (_GENS[1], (0, -1, 1, 1)))
    num = 12 + m - 3 * nu2 - 4 * nu3 - 6 * n
    if num % 12:
        raise ArithmeticError(f"{spec.label()}: Riemann-Hurwitz gave genus {num}/12")
    return num // 12, n, m


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


def spectrum_to_csv(spectrum: LengthSpectrum) -> str:
    """CSV export: header plus (trace, length, multiplicity) rows."""
    lines = ["trace,length,multiplicity"]
    for e in spectrum.entries:
        lines.append(f"{e.trace},{e.length:.17g},{e.multiplicity}")
    return "\n".join(lines) + "\n"
