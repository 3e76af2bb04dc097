"""Independent brute-force oracles for the length-spectrum enumeration.

Three layers, none of which trusts the production counting route:

1. word oracle: hyperbolic conjugacy classes of the modular group are
   cyclic words R^{a1} L^{b1} ... R^{ak} L^{bk} with positive exponents,
   unique up to rotation; primitive iff the cyclic word is not a power.
   Exhaustive generation with trace pruning gives exact per-trace class
   counts with no quadratic-form input at all.

2. an exact conjugacy decision inside a congruence subgroup Gamma: a
   solution h of h^-1 V h = W is produced by reducing the fixed-point
   forms with tracked transformations; the full solution set is
   z^i h for the primitive automorph z of the common axis, so V ~_Gamma W
   iff z^i h lands in Gamma for some i below the coset order of z.

3. bounded-entry enumeration of subgroup elements, classified with the
   exact decision; comparing per-trace class counts against the
   production covering-space route validates both multiplicities and
   completeness at desk scale.
"""

from __future__ import annotations

from math import gcd, isqrt

from .lengthspec import (
    Form,
    GroupSpec,
    Mat,
    M_ID,
    _signed_divisors,
    contains,
    form_of_matrix,
    group_invariants,
    is_reduced,
    mat_inv,
    mat_mul,
    mat_pow,
    matrix_of_form,
    pell_fundamental,
    rho_step,
    trace_of_power,
)

__all__ = [
    "word_class_counts",
    "gamma_conjugate",
    "enumerate_subgroup_elements",
    "bruteforce_subgroup_counts",
    "is_power_in_group",
]

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

    def visit(word: str, mat: Mat) -> None:
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
            visit(word + letter, nxt)

    visit("R", _R)
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
    if D <= 0 or isqrt(D) ** 2 == D:
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


def _form_content(form: Form) -> int:
    return gcd(gcd(abs(form[0]), abs(form[1])), abs(form[2]))


def primitive_automorph(form: Form) -> Mat:
    """Generator (up to sign) of the centralizer of any hyperbolic matrix
    whose fixed-point form is a multiple of ``form``."""
    u0 = _form_content(form)
    a0, b0, c0 = form[0] // u0, form[1] // u0, form[2] // u0
    d0 = b0 * b0 - 4 * a0 * c0
    T, U = pell_fundamental(d0)
    return matrix_of_form((a0 * U, b0 * U, c0 * U), T)


def ambient_conjugator(V: Mat, W: Mat) -> Mat | None:
    """h in SL2(Z) with h^-1 V h = W, or None if not conjugate in PSL2(Z)."""
    tV = V[0] + V[3]
    if tV != W[0] + W[3]:
        return None
    qV, qW = form_of_matrix(V), form_of_matrix(W)
    if _form_content(qV) != _form_content(qW):
        return None
    D = tV * tV - 4
    rV, hV = reduce_with_transform(qV)
    rW, hW = reduce_with_transform(qW)
    # rho permutes the reduced forms of D, so walking W's cycle either
    # meets rV or comes back to rW
    cur, acc = rW, M_ID
    while cur != rV:
        cur, step = rho_step(cur, D)
        acc = mat_mul(acc, step)
        if cur == rW:
            return None
    # subst(qV, hV) = rV = subst(qW, hW . acc)  =>  common-axis transport
    h = mat_mul(hV, mat_inv(mat_mul(hW, acc)))
    got = mat_mul(mat_mul(mat_inv(h), V), h)
    if got == W:
        return h
    if got == tuple(-x for x in W):
        return h
    raise RuntimeError("conjugator construction failed its own check")


def gamma_conjugate(V: Mat, W: Mat, spec: GroupSpec) -> bool:
    """Exact decision: are V and W conjugate inside the subgroup image?"""
    if not (contains(spec, V) and contains(spec, W)):
        raise ValueError("both matrices must lie in the subgroup")
    h = ambient_conjugator(V, W)
    if h is None:
        return False
    z = primitive_automorph(form_of_matrix(V))
    # minimal d with z^d in Gamma: two of the m + 1 cosets Gamma z^k,
    # 0 <= k <= m, coincide, so d <= m for the subgroup index m
    _, _, m = group_invariants(spec)
    zk = z
    for d in range(1, m + 1):
        if contains(spec, zk):
            break
        zk = mat_mul(zk, z)
    else:
        raise RuntimeError("automorph order exceeded the subgroup index")
    x = h
    for _ in range(d):
        if contains(spec, x):
            return True
        x = mat_mul(z, x)
    return False


# ---------------------------------------------------------------------------
# bounded-entry enumeration


def enumerate_subgroup_elements(spec: GroupSpec, max_trace: int,
                                entry_bound: int) -> dict[int, list[Mat]]:
    """All subgroup elements with 3 <= trace <= max_trace, |entries| <= B."""
    B = entry_bound
    out: dict[int, list[Mat]] = {t: [] for t in range(3, max_trace + 1)}
    for t in range(3, max_trace + 1):
        for a in range(-B, B + 1):
            d = t - a
            if abs(d) > B:
                continue
            m = a * d - 1
            if m == 0:
                continue
            for b in _signed_divisors(abs(m)):
                c = m // b
                if abs(b) > B or abs(c) > B:
                    continue
                M: Mat = (a, b, c, d)
                if contains(spec, M):
                    out[t].append(M)
    return out


def _cheb_seq(s: int, k: int) -> tuple[int, int]:
    """(S_{k-1}(s), S_{k-2}(s)) with S_-1=0, S_0=1, S_j = s S_{j-1} - S_{j-2}."""
    prev, cur = 0, 1
    for _ in range(k - 1):
        prev, cur = cur, s * cur - prev
    return cur, prev


def is_power_in_group(M: Mat, spec: GroupSpec) -> bool:
    """True when M = N^k for some k >= 2 with N in the subgroup."""
    t = M[0] + M[3]
    k = 2
    while True:
        # smallest possible root trace is 3; if even that overshoots, stop
        if trace_of_power(3, k) > t:
            return False
        for s in range(3, t):
            if trace_of_power(s, k) == t:
                sk1, sk2 = _cheb_seq(s, k)
                num = (M[0] + sk2, M[1], M[2], M[3] + sk2)
                if all(v % sk1 == 0 for v in num):
                    N = tuple(v // sk1 for v in num)
                    if N[0] * N[3] - N[1] * N[2] == 1 and contains(spec, N):
                        P = mat_pow(N, k)
                        if P == M or P == tuple(-x for x in M):
                            return True
                break  # at most one integer root trace per k
        k += 1


def bruteforce_subgroup_counts(spec: GroupSpec, max_trace: int,
                               entry_bound: int) -> dict[int, int]:
    """Per-trace primitive class counts found inside the entry window.

    A lower bound on the true multiplicities that stabilizes to equality
    once entry_bound dominates the smallest representatives.
    """
    found = enumerate_subgroup_elements(spec, max_trace, entry_bound)
    counts: dict[int, int] = {}
    for t, elems in found.items():
        reps: list[Mat] = []
        for M in elems:
            if is_power_in_group(M, spec):
                continue
            if not any(gamma_conjugate(M, r, spec) for r in reps):
                reps.append(M)
        if reps:
            counts[t] = len(reps)
    return counts
