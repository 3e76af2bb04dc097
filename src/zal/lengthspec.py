"""Primitive geodesic length spectra of the modular group and congruence subgroups.

The convention is the standard one: primitive *oriented* closed
geodesics, equivalently conjugacy classes of primitive hyperbolic
elements; length = 2 arccosh(t/2).

The number of primitive classes of each trace t and content u, the
content of their fixed-point form, comes from Dirichlet's class-number
formula with certified rounding (``classnum``).  The reduction cycles
that check those counts, serve as their fallback and give explicit class
representatives live in ``oracles``.

Every group is Gamma0(N), Gamma1(N) or Gamma(N), given by its kind and
level N, with Gamma0(N) > Gamma1(N) > Gamma(N) (Shimura, Arithmetic
Theory of Automorphic Functions, 1.6): [[a, b], [c, d]] has N | c, then
also N | a - d, then also N | b.  The full group is Gamma0(1); the others
modelled are Gamma(2) and Gamma0(p), Gamma1(p) for prime p >= 11.  As
N | c gives ad = 1 mod N, at prime N (and N <= 2) a = d mod N means
a = d = +-1 mod N, and the bottom row is a point of P^1(Z/N) with first
nonzero entry 1, the Gamma0 coset label; composite N needs more.

Subgroup spectra come from the covering of the modular surface: a
primitive ambient class M of trace t acts on the cosets of the subgroup,
and each orbit of size k contributes one primitive class of trace
T_k(t) = tr M^k.  The enumeration is complete up to max_trace because
T_k(t) grows with k.  Every group contains Gamma(N), so the orbit sizes
depend only on M mod N up to GL2(Z/N) conjugation, and that class is
fixed by (t mod N, N | u), u the content of M's fixed-point form: M is
+-I mod N exactly when N | u, and otherwise conjugate to the companion
matrix of x^2 - t x + 1 (Fulton-Harris, Representation Theory, 5.2).
Every spectrum is thus a sum over class counts per (t, u) and one
orbit-size table per group.  The companion matrix is S T^r, so its
permutation of the cosets is S's followed by r steps along the cycles of
T, the cusps.  The walk that builds the coset table records the
permutations of T and S, so no coset label is acted on per residue.
Genus, cusps and elliptic points are read off the same table.

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
    GAMMA0 = "gamma0"
    GAMMA1 = "gamma1"
    GAMMA = "gamma"


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
    """The group of the given kind and level N: Gamma0(1), the full group;
    Gamma(2); or Gamma0(p), Gamma1(p) for prime p >= 11."""
    kind: GroupKind
    level: int

    def __post_init__(self) -> None:
        k, N = self.kind, self.level
        if not (isinstance(N, int) and (
                (k, N) in ((GroupKind.GAMMA0, 1), (GroupKind.GAMMA, 2))
                or k is not GroupKind.GAMMA and N >= 11 and _is_prime(N))):
            raise ValueError(f"{k.value}({N}) is not modelled: the groups are gamma0(1), "
                             f"gamma(2), and gamma0(p), gamma1(p) for prime p >= 11")

    @classmethod
    def full(cls) -> "GroupSpec":
        return cls(GroupKind.GAMMA0, 1)

    @classmethod
    def principal2(cls) -> "GroupSpec":
        return cls(GroupKind.GAMMA, 2)

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
        if self.level == 1:
            return "full"
        if self.kind is GroupKind.GAMMA:
            return f"gamma{self.level}"
        return f"{self.kind.value}({self.level})"


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

    def counting(self, L: float) -> int:
        """N(L): number of primitive classes of length <= L, with multiplicity."""
        return sum(e.multiplicity for e in self.entries if e.length <= L)

    def total_classes(self) -> int:
        return sum(e.multiplicity for e in self.entries)


def _entries_from_counts(counts: dict[int, int]) -> tuple[GeodesicClass, ...]:
    return tuple(GeodesicClass(t, geodesic_length(t), m)
                 for t, m in sorted(counts.items()) if m > 0)


# ---------------------------------------------------------------------------
# coset actions of the congruence subgroups


def contains(spec: GroupSpec, M: Mat) -> bool:
    """Membership of +-M in the subgroup, M an SL2(Z) matrix: N | c, then
    for Gamma1 and Gamma N | a - d, then for Gamma N | b.  N | c gives
    ad = 1 mod N, so at prime N (and N <= 2) N | a - d is exactly
    a = d = +-1 mod N; composite N would need that tested."""
    a, b, c, d = M
    N = spec.level
    return c % N == 0 and (spec.kind is GroupKind.GAMMA0 or (a - d) % N == 0 and (
        spec.kind is GroupKind.GAMMA1 or b % N == 0))


# the generators T and S of SL2(Z)
_GENS: tuple[Mat, Mat] = ((1, 1, 0, 1), (0, -1, 1, 0))


def _index(spec: GroupSpec) -> int:
    """Closed-form index of the image in PSL2(Z) at N prime or N <= 2, to
    check the coset walk; -I lies in Gamma(N) only for N <= 2."""
    N = spec.level
    if spec.kind is GroupKind.GAMMA0:
        return N + (N > 1)
    if spec.kind is GroupKind.GAMMA1:
        return (N * N - 1) // 2
    return N * (N * N - 1) // (2 if N > 2 else 1)


@cache
def _coset_table(spec: GroupSpec) -> tuple[list, dict, list[Mat], tuple[list[int], list[int]]]:
    """(labels, label->index, representative matrices, the permutations
    of T and S), index m entries.

    Built once per group and shared by every caller, which must not
    mutate it.

    The table is the orbit of the identity's label under right
    multiplication by T and S, walked breadth first: each new label
    takes the next index, and its representative is the representative
    of the label it was reached from times the generator; the index each
    generator takes each label to is its permutation.  T and S
    generate SL2(Z), so the walk reaches every coset; there are finitely
    many labels, so it ends.  Its size is checked against ``_index``,
    which does not use the walk; the invariants are read off the table.
    """
    lab0 = _label(spec, M_ID)
    labels: list = [lab0]
    index: dict = {lab0: 0}
    reps: list[Mat] = [M_ID]
    perms: tuple[list[int], list[int]] = ([], [])
    for i, lab in enumerate(labels):  # labels grows while it is walked
        for g, perm in zip(_GENS, perms):
            nxt = _label_act(spec, lab, g)
            if nxt not in index:
                index[nxt] = len(labels)
                labels.append(nxt)
                reps.append(mat_mul(reps[i], g))
            perm.append(index[nxt])
    m = _index(spec)
    if len(labels) != m:
        raise ArithmeticError(f"{spec.label()}: coset walk found {len(labels)} "
                              f"cosets, index formula gives {m}")
    return labels, index, reps, perms


def _label(spec: GroupSpec, M: Mat):
    """Label of the coset of M: the identity's matrix, or its bottom row,
    acted on by M."""
    return _label_act(spec, M_ID if spec.kind is GroupKind.GAMMA else M_ID[2:], M)


def _label_act(spec: GroupSpec, lab, M: Mat):
    """Label of (coset rep with label lab) * M, computed on labels only.

    The label of a coset (Gamma g) is a right-multiplication-equivariant
    invariant of g, reduced mod N: for Gamma the matrix up to sign, for
    Gamma1 the bottom row up to sign, for Gamma0 the bottom row scaled so
    its first nonzero entry is 1.
    """
    a, b, c, d = M
    N = spec.level
    if spec.kind is GroupKind.GAMMA:
        la, lb, lc, ld = lab
        x = ((la * a + lb * c) % N, (la * b + lb * d) % N,
             (lc * a + ld * c) % N, (lc * b + ld * d) % N)
        return min(x, tuple(-v % N for v in x))
    lc, ld = lab
    nc, nd = (lc * a + ld * c) % N, (lc * b + ld * d) % N
    if spec.kind is GroupKind.GAMMA1:
        return min((nc, nd), (-nc % N, -nd % N))
    if nc == 0:
        return (0, 1)
    return (1, nd * pow(nc, -1, N) % N)


def coset_permutation(spec: GroupSpec, M: Mat) -> list[int]:
    """Permutation induced by right multiplication by M on the coset labels."""
    labels, index, _, _ = _coset_table(spec)
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
    t_perm, s_perm = _coset_table(spec)[3]
    m = len(t_perm)
    n = sum(1 for _ in _orbits(t_perm))
    # nu2, nu3: the cosets fixed by S and by ST, one per elliptic point of order 2, 3
    nu2 = sum(i == j for i, j in enumerate(s_perm))
    nu3 = sum(i == t_perm[j] for i, j in enumerate(s_perm))
    num = 12 + m - 3 * nu2 - 4 * nu3 - 6 * n
    if num % 12:
        raise ArithmeticError(f"{spec.label()}: Riemann-Hurwitz gave genus {num}/12")
    return num // 12, n, m


@cache
def _orbit_sizes(spec: GroupSpec, r: int, scalar: bool) -> tuple[int, ...]:
    """Sorted coset-orbit sizes shared by every primitive ambient class of
    trace r mod N that is +-I mod N (``scalar``) or is not.

    One stand-in per key: the identity, which acts on the cosets as -I
    does, or the companion matrix (0, -1, 1, r) = S T^r, which maps coset
    i to S(i) and then r steps along its cycle of T.
    """
    t_perm, s_perm = _coset_table(spec)[3]
    if scalar:
        return (1,) * len(t_perm)
    shift = [0] * len(t_perm)  # T^r, one cycle of T at a time
    for i, k in _orbits(t_perm):
        cycle = [i]
        for _ in range(k - 1):
            cycle.append(t_perm[cycle[-1]])
        for j, jr in zip(cycle, cycle[r % k:] + cycle[:r % k]):
            shift[j] = jr
    return tuple(sorted(k for _, k in _orbits([shift[j] for j in s_perm])))


def _spectrum(spec: GroupSpec, max_trace: int) -> LengthSpectrum:
    """The counting loop of both spectrum functions: the h ambient classes
    of trace t and content u add h classes of trace T_k(t) per orbit size k."""
    N = spec.level
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
