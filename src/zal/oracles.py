"""Reduction cycles and independent brute-force oracles for the length spectra.

Hyperbolic conjugacy classes of the modular group of trace t correspond
to cycles of Gauss-reduced indefinite binary quadratic forms of
discriminant t^2 - 4.  The cycles count the classes exactly, as the
reference and fallback of ``classnum``, and give explicit class
representatives.  Two traps are handled explicitly:

* a cycle of any content is a *primitive group element* only when the
  product of the rho steps once around it, which generates the
  automorphs of its forms, has trace +-t; a cycle of content u > 1 whose
  step product has a smaller trace is a proper power and must not be
  counted;
* equivalence of forms is proper (SL2) equivalence, i.e. cycles, not
  ambiguous GL2 classes.

Three oracle layers, none of which trusts the production counting route:

1. word oracle: hyperbolic conjugacy classes of the modular group are
   cyclic words R^{a1} L^{b1} ... R^{ak} L^{bk} with positive exponents,
   unique up to rotation; primitive iff the cyclic word is not a power.
   Exhaustive generation with trace pruning gives exact per-trace class
   counts with no quadratic-form input at all.

2. an exact conjugacy decision inside a congruence subgroup Gamma, read
   from one normal form per element (``_axis``): the least form r of the
   rho-cycle of M's fixed-point form, h with h^-1 M h the automorph of r,
   and the generator z of M's centraliser.  Elements share the cycle walk:
   it is made once per cycle of reduced forms (``_least_frame``), and each
   element only reduces its form and conjugates.  V and W of one trace are
   PSL2(Z)-conjugate iff their r agree; then V ~_Gamma W iff z^i hV hW^-1
   lies in Gamma for some i below the order d of z modulo Gamma, and an
   element M is a proper power in Gamma iff |tr M| != |tr z^d|.

3. bounded-entry enumeration of subgroup elements by congruence, with
   no factoring: for the group's level N only a with N | ad - 1, and
   a = +-1 mod N for Gamma1 and Gamma, are kept, and c runs over the
   multiples of N from |ad - 1| / B, so that |b| <= B; the elements
   are classified with the exact decision, and comparing per-trace class
   counts against the production covering-space route validates both
   multiplicities and completeness at desk scale.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt
from typing import Iterable, Iterator

from .lengthspec import (M_ID, GroupKind, GroupSpec, Mat, _coset_table, _orbits, contains,
                         coset_permutation, group_invariants, mat_mul, trace_of_power)

__all__ = [
    "word_class_counts",
    "gamma_conjugate",
    "enumerate_subgroup_elements",
    "bruteforce_subgroup_counts",
    "is_power_in_group",
]

Form = tuple[int, int, int]  # (a, b, c) <-> a x^2 + b xy + c y^2


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


_R: Mat = (1, 1, 0, 1)
_L: Mat = (1, 0, 1, 1)


def _min_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def _is_primitive_word(s: str) -> bool:
    return (s + s).find(s, 1) == len(s)


def word_class_counts(max_trace: int) -> dict[int, int]:
    """Primitive hyperbolic class counts by trace, from R/L cyclic words.

    Generates every linear word starting with R and ending with L whose
    trace is <= max_trace (trace strictly grows letter-by-letter once
    both letters are present), canonicalizes by rotation and keeps
    primitive words only.
    """
    classes: dict[int, set[str]] = {}
    # an explicit stack: the leading R-run alone is max_trace - 2 letters deep
    stack: list[tuple[str, Mat]] = [("R", _R)]
    while stack:
        word, mat = stack.pop()
        if word[-1] == "L":
            t = mat[0] + mat[3]
            if 3 <= t <= max_trace:
                canon = _min_rotation(word)
                if _is_primitive_word(canon):
                    classes.setdefault(t, set()).add(canon)
        for letter, gen in (("R", _R), ("L", _L)):
            nxt = mat_mul(mat, gen)
            if "L" in word and nxt[0] + nxt[3] > max_trace:
                continue
            if "L" not in word and letter == "R" and len(word) + 1 > max_trace - 2:
                continue  # a leading run R^a with a > t-2 cannot close below t
            stack.append((word + letter, nxt))
    return {t: len(v) for t, v in sorted(classes.items())}


# ---------------------------------------------------------------------------
# exact conjugacy decision


def subst(form: Form, h: Mat) -> Form:
    """The form Q(h * (x,y)); proper equivalence when det h = 1."""
    a, b, c = form
    p, q, r, s = h
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def reduce_with_transform(form: Form) -> tuple[Form, Mat]:
    """(reduced form R, h) with R = subst(form, h), h in SL2(Z).

    Applies rho steps until a reduced form is reached.  While the new first
    coefficient a has a^2 > D, one translation moves the new middle
    coefficient b into (-|a|, |a|], so the next step gives
    |c'| = |b^2 - D|/(4|a|) <= a^2/(4|a|) = |a|/4: once |c| > sqrt(D), each
    step quarters |c|.  After k steps, 16^k D >= c^2, |c| < sqrt(D); the
    next step puts b in (sqrt(D) - 2|a|, sqrt(D)), which is reduced when
    |a| < sqrt(D)/2 and otherwise leaves |c'| < D/(4|a|) < sqrt(D)/2, so one
    more step ends the walk: at most k + 2 steps (the centred normalisation
    of Buchmann-Vollmer, Binary Quadratic Forms, ch. 6).  Without the
    translation, b may stay near -2|c| and the walk takes about sqrt(|c|)
    steps, as from (1, 1 - 2n, n^2 - n - 1).  D is not a square, so c never
    vanishes.
    """
    a, b, c = form
    D = b * b - 4 * a * c
    if not is_discriminant(D):
        raise ValueError("needs a positive non-square discriminant")
    k = 0
    while c * c > (D << (4 * k)):
        k += 1
    bound = k + 2
    cur, h, steps = form, M_ID, 0
    while not is_reduced(cur, D):
        if steps == bound:
            raise RuntimeError(f"reduction of {form} exceeded its bound of {bound} steps")
        steps += 1
        cur, step = rho_step(cur, D)
        h = mat_mul(h, step)
        if cur[0] * cur[0] > D and cur[1] <= -abs(cur[0]):
            shift = (1, 1 if cur[0] > 0 else -1, 0, 1)
            cur, h = subst(cur, shift), mat_mul(h, shift)
    return cur, h


# (R, D) -> (r, P, Z_r) of every reduced form met so far, one cycle at a time
_FRAMES: dict[tuple[Form, int], tuple[Form, Mat, Mat]] = {}


def _least_frame(R: Form, D: int) -> tuple[Form, Mat, Mat]:
    """(r, P, Z_r): r the least form of the rho-cycle of the reduced form R,
    P the product of the steps from R on to r, and Z_r the cycle's step
    product started at r, so that Z_R = P Z_r P^-1.

    One walk fills the frames of the whole cycle: with Q_i the product of
    the first i steps from R and r its m-th form, the steps from the i-th
    form on to r multiply to Q_i^-1 Q_m, or to Q_i^-1 Z_R Q_m when i > m.
    """
    if (R, D) not in _FRAMES:
        forms, Z = _cycle(R, D)
        Q = [M_ID]
        for f in forms[:-1]:
            Q.append(mat_mul(Q[-1], rho_step(f, D)[1]))
        m = forms.index(min(forms))
        Zr = mat_mul(mat_mul(mat_inv(Q[m]), Z), Q[m])
        for i, f in enumerate(forms):
            to_r = Q[m] if i <= m else mat_mul(Z, Q[m])
            _FRAMES[f, D] = (forms[m], mat_mul(mat_inv(Q[i]), to_r), Zr)
    return _FRAMES[R, D]


def _axis(M: Mat) -> tuple[Form, Mat, Mat]:
    """(r, h, z): the normal form of a hyperbolic M, reduced once.

    r is the least form of the rho-cycle of M's fixed-point form, a
    complete invariant of proper equivalence, and h^-1 M h is the trace-t
    automorph of r, so matrices of one trace are PSL2(Z)-conjugate exactly
    when their r agree.  With h0 the reduction to R and (r, P, Z_r) the
    frame of R's cycle, h = h0 P and z = h Z_r h^-1 = h0 Z_R h0^-1, which
    generates M's centraliser up to sign.
    """
    t = M[0] + M[3]
    D = t * t - 4
    R, h0 = reduce_with_transform(form_of_matrix(M))
    r, P, Z = _least_frame(R, D)
    h = mat_mul(h0, P)
    h_inv = mat_inv(h)
    if mat_mul(mat_mul(h_inv, M), h) != matrix_of_form(r, t):
        raise RuntimeError("normal-form transform failed its own check")
    return r, h, mat_mul(mat_mul(h, Z), h_inv)


def ambient_conjugator(V: Mat, W: Mat) -> Mat | None:
    """h in SL2(Z) with h^-1 V h = W, or None if not conjugate in PSL2(Z)."""
    if V[0] + V[3] != W[0] + W[3]:
        return None
    (rV, hV, _), (rW, hW, _) = _axis(V), _axis(W)
    return mat_mul(hV, mat_inv(hW)) if rV == rW else None


def _order(z: Mat, spec: GroupSpec) -> int:
    """The least d with z^d in +-Gamma.  Two of the m + 1 cosets Gamma z^k,
    0 <= k <= m, coincide, so d <= m for the subgroup index m."""
    _, _, m = group_invariants(spec)
    zk = z
    for d in range(1, m + 1):
        if contains(spec, zk):
            return d
        zk = mat_mul(zk, z)
    raise RuntimeError("automorph order exceeded the subgroup index")


def _meets(z: Mat, d: int, h: Mat, spec: GroupSpec) -> bool:
    """Whether z^i h lies in Gamma for some i; i < d suffices, as z^d is in +-Gamma."""
    for _ in range(d):
        if contains(spec, h):
            return True
        h = mat_mul(z, h)
    return False


def gamma_conjugate(V: Mat, W: Mat, spec: GroupSpec) -> bool:
    """Exact decision: are V and W conjugate inside the subgroup image?
    Every h with h^-1 V h = W is +-z^i hV hW^-1, z from V's normal form."""
    if not (contains(spec, V) and contains(spec, W)):
        raise ValueError("both matrices must lie in the subgroup")
    if V[0] + V[3] != W[0] + W[3]:
        return False
    (rV, hV, z), (rW, hW, _) = _axis(V), _axis(W)
    return rV == rW and _meets(z, _order(z, spec), mat_mul(hV, mat_inv(hW)), spec)


# ---------------------------------------------------------------------------
# bounded-entry enumeration


def enumerate_subgroup_elements(spec: GroupSpec, max_trace: int,
                                entry_bound: int) -> dict[int, list[Mat]]:
    """All subgroup elements with 3 <= trace <= max_trace, |entries| <= B.

    An element [[a, b], [c, d]] of trace t has d = t - a and bc = m with
    m = ad - 1, nonzero since ad = 1 would give |t| = 2.  Let N be the
    level.  Every element has N | c, and c | m, so a with N not dividing
    m is skipped; in Gamma1 and Gamma a = d mod N with ad = 1 mod N, so
    there a must be +-1 mod N too.  The lower-left entry then runs over
    the multiples c = kN with |m| / B <= c <= B, the lower bound being
    |b| <= B, and every c that divides m gives the two candidates (b, c)
    and (-b, -c) with b = m / c.  The skips drop only candidates that
    ``contains``, still the final filter, would reject; nothing is
    factored.
    """
    B = entry_bound
    N = spec.level
    a_is_pm1 = spec.kind is not GroupKind.GAMMA0
    out: dict[int, list[Mat]] = {t: [] for t in range(3, max_trace + 1)}
    for t in range(3, max_trace + 1):
        for a in range(t - B, B + 1):  # |a| <= B and |t - a| <= B
            d = t - a
            m = a * d - 1
            if m % N or (a_is_pm1 and (a + 1) % N and (a - 1) % N):
                continue
            # the least multiple of N that is >= max(N, |m| / B)
            for c in range(max(1, -(-abs(m) // (B * N))) * N, B + 1, N):
                if m % c:
                    continue
                b = m // c
                for M in ((a, b, c, d), (a, -b, -c, d)):
                    if contains(spec, M):
                        out[t].append(M)
    return out


def _is_power(M: Mat, z: Mat, d: int) -> bool:
    """M in Gamma is +-z^(d j), j != 0, and a proper power iff |j| >= 2."""
    return abs(M[0] + M[3]) != abs(trace_of_power(z[0] + z[3], d))


def is_power_in_group(M: Mat, spec: GroupSpec) -> bool:
    """True when +-M = N^k for some k >= 2 with N in the subgroup, M hyperbolic.

    z generates M's centraliser up to sign, and z^d its part in +-Gamma.
    """
    if not contains(spec, M):
        raise ValueError("the matrix must lie in the subgroup")
    z = _axis(M)[2]
    return _is_power(M, z, _order(z, spec))


def bruteforce_subgroup_counts(spec: GroupSpec, max_trace: int,
                               entry_bound: int) -> dict[int, int]:
    """Per-trace primitive class counts found inside the entry window.

    A lower bound on the true multiplicities that stabilizes to equality
    once entry_bound dominates the smallest representatives.  Each element
    is reduced once and compared, as in ``gamma_conjugate``, only with the
    representatives of its normal form r.
    """
    found = enumerate_subgroup_elements(spec, max_trace, entry_bound)
    counts: dict[int, int] = {}
    for t, elems in found.items():
        reps: dict[Form, list[Mat]] = {}  # r -> the h^-1 of each representative
        for M in elems:
            r, h, z = _axis(M)
            d = _order(z, spec)
            if _is_power(M, z, d):
                continue
            same = reps.setdefault(r, [])
            if not any(_meets(z, d, mat_mul(h, hR_inv), spec) for hR_inv in same):
                same.append(mat_inv(h))
        if reps:
            counts[t] = sum(map(len, reps.values()))
    return counts
