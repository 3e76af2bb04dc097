"""The oracles' own decisions: the word walk, the normal form, and the
Gamma-conjugacy and power tests read from it."""

import sys
from math import gcd

import pytest

from zal import lengthspec as ls
from zal import oracles


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_word_oracle_runs_on_a_shallow_stack():
    # the leading R-run alone is max_trace - 2 letters long
    want = {e.trace: e.multiplicity for e in ls.modular_spectrum(200).entries}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        got = oracles.word_class_counts(200)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def _cheb_seq(s, k):
    """(S_{k-1}(s), S_{k-2}(s)) with S_-1=0, S_0=1, S_j = s S_{j-1} - S_{j-2}."""
    prev, cur = 0, 1
    for _ in range(k - 1):
        prev, cur = cur, s * cur - prev
    return cur, prev


def _power_by_chebyshev_roots(M, spec):
    """The former is_power_in_group: for each k >= 2 the only candidate root
    has the trace s with T_k(s) = tr M, and is N = (M + S_{k-2}(s) I) / S_{k-1}(s)."""
    t = M[0] + M[3]
    k = 2
    while True:
        if ls.trace_of_power(3, k) > t:
            return False
        for s in range(3, t):
            if ls.trace_of_power(s, k) == t:
                sk1, sk2 = _cheb_seq(s, k)
                num = (M[0] + sk2, M[1], M[2], M[3] + sk2)
                if all(v % sk1 == 0 for v in num):
                    N = tuple(v // sk1 for v in num)
                    if N[0] * N[3] - N[1] * N[2] == 1 and ls.contains(spec, N):
                        P = oracles.mat_pow(N, k)
                        if P == M or P == tuple(-x for x in M):
                            return True
                break
        k += 1


SPECS = (ls.GroupSpec.principal2(), ls.GroupSpec.gamma0(11), ls.GroupSpec.gamma1(11))


class TestIsPowerInGroup:
    def test_matches_chebyshev_roots_on_enumerated_elements(self):
        powers = 0
        for spec in SPECS:
            for elems in oracles.enumerate_subgroup_elements(spec, 20, 60).values():
                for M in elems:
                    want = _power_by_chebyshev_roots(M, spec)
                    assert oracles.is_power_in_group(M, spec) == want, (spec, M)
                    powers += want
        assert powers > 0

    def test_powers_of_group_elements_are_powers(self):
        # trace 13 reaches Gamma1(11), whose traces are +-2 mod 11
        for spec in SPECS:
            found = oracles.enumerate_subgroup_elements(spec, 13, 30)
            assert any(found.values()), spec
            for elems in found.values():
                for N in elems:
                    N2 = oracles.mat_pow(N, 2)
                    for P in (N2, oracles.mat_pow(N, 3), tuple(-x for x in N2)):
                        assert oracles.is_power_in_group(P, spec), (spec, N, P)


def _enumerate_by_divisor_scan(spec, max_trace, B):
    """The former enumerate_subgroup_elements: every signed divisor b of
    a d - 1 for every a in the window, filtered by ``contains``."""
    out = {t: [] for t in range(3, max_trace + 1)}
    for t in range(3, max_trace + 1):
        for a in range(t - B, B + 1):
            d = t - a
            m = a * d - 1
            for b in oracles._signed_divisors(abs(m)):
                c = m // b
                if abs(b) <= B and abs(c) <= B and ls.contains(spec, (a, b, c, d)):
                    out[t].append((a, b, c, d))
    return out


def _spec(kind, p):
    return getattr(ls.GroupSpec, kind)(p) if p else getattr(ls.GroupSpec, kind)()


# one brute-force window per group of the benchmark's crosscheck workload, then wider ones
ENUM_WINDOWS = [("principal2", None, 20, 41), ("gamma0", 11, 20, 81), ("gamma0", 17, 20, 122),
                ("gamma0", 23, 20, 122), ("gamma0", 31, 20, 223), ("gamma1", 11, 12, 406),
                ("gamma1", 13, 14, 404), ("full", None, 20, 40), ("principal2", None, 30, 80),
                ("gamma0", 13, 24, 120), ("gamma1", 11, 20, 300), ("gamma0", 29, 14, 200),
                ("gamma1", 13, 16, 200), ("gamma0", 19, 18, 150)]


@pytest.mark.parametrize("kind,p,max_trace,bound", ENUM_WINDOWS,
                         ids=[f"{k}{f'_{p}' if p else ''}_T{t}_B{b}"
                              for k, p, t, b in ENUM_WINDOWS])
def test_congruence_enumeration_matches_divisor_scan(kind, p, max_trace, bound):
    spec = _spec(kind, p)
    got = oracles.enumerate_subgroup_elements(spec, max_trace, bound)
    want = _enumerate_by_divisor_scan(spec, max_trace, bound)
    assert {t: sorted(v) for t, v in got.items()} == {t: sorted(v) for t, v in want.items()}
    assert all(len(set(v)) == len(v) for v in got.values())
    assert any(got.values())


def test_enumeration_factors_nothing(monkeypatch):
    def forbidden(m):
        raise AssertionError("divisor scan called")

    monkeypatch.setattr(oracles, "_signed_divisors", forbidden)
    assert oracles.bruteforce_subgroup_counts(ls.GroupSpec.gamma1(13), 14, 400)


class TestIsPowerInGroupDomain:
    def test_rejects_matrix_outside_the_group(self):
        with pytest.raises(ValueError):
            oracles.is_power_in_group((2, 1, 1, 1), ls.GroupSpec.gamma0(11))


_T, _S, _TI = (1, 1, 0, 1), (0, -1, 1, 0), (1, -1, 0, 1)


def _word(*letters):
    out = ls.M_ID
    for g in letters:
        out = ls.mat_mul(out, g)
    return out


WORDS = (ls.M_ID, _T, _S, _word(_T, _S), _word(_S, _T, _T, _T), _word(_TI, _TI, _S, _T),
         _word(_S, _T, _S, _TI, _TI, _S, _T, _T, _T, _T, _T))


class TestNormalForm:
    def test_least_cycle_form_of_every_conjugate(self):
        for t in range(3, 41):
            for A in oracles.ambient_classes(t):
                want = oracles.form_of_matrix(A)
                for g in WORDS:
                    M = ls.mat_mul(ls.mat_mul(g, A), oracles.mat_inv(g))
                    r, h, z = oracles._axis(M)
                    assert r == want, (t, A, g)
                    assert ls.mat_mul(ls.mat_mul(oracles.mat_inv(h), M), h) == A
                    assert ls.mat_mul(z, M) == ls.mat_mul(M, z)
                    assert abs(z[0] + z[3]) == t  # A is primitive: z = +-A^(+-1)

    def test_bruteforce_reduces_each_element_once(self, monkeypatch):
        spec = ls.GroupSpec.gamma0(11)
        n = sum(map(len, oracles.enumerate_subgroup_elements(spec, 8, 200).values()))
        calls = []
        axis = oracles._axis
        monkeypatch.setattr(oracles, "_axis", lambda M: calls.append(M) or axis(M))

        def forbidden(*args):
            raise AssertionError("pairwise decision called")

        monkeypatch.setattr(oracles, "ambient_conjugator", forbidden)
        monkeypatch.setattr(oracles, "gamma_conjugate", forbidden)
        got = oracles.bruteforce_subgroup_counts(spec, 8, 200)
        assert got == {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 8).entries}
        assert len(calls) == len(set(calls)) == n > 0


def _axis_by_cycle_walk(M):
    """The former normal form: every element walks its reduced form's whole
    cycle, takes z from that walk, then steps on to the least form."""
    t = M[0] + M[3]
    D = t * t - 4
    R, h = oracles.reduce_with_transform(oracles.form_of_matrix(M))
    forms, Z = oracles._cycle(R, D)
    z = ls.mat_mul(ls.mat_mul(h, Z), oracles.mat_inv(h))
    for _ in range(forms.index(min(forms))):
        R, step = oracles.rho_step(R, D)
        h = ls.mat_mul(h, step)
    return R, h, z


# the distinct (group, max_trace, entry_bound) brute-force windows of the
# seed-0 crosscheck benchmark pass for these three groups
SEED0_WINDOWS = [(ls.GroupSpec.gamma0(11), 20, 80), (ls.GroupSpec.gamma0(11), 20, 81),
                 (ls.GroupSpec.principal2(), 20, 40), (ls.GroupSpec.principal2(), 20, 41),
                 (ls.GroupSpec.gamma1(13), 14, 400), (ls.GroupSpec.gamma1(13), 14, 401),
                 (ls.GroupSpec.gamma1(13), 14, 404)]


class TestLeastFrame:
    @pytest.mark.parametrize("spec,max_trace,bound", SEED0_WINDOWS)
    def test_axis_matches_the_uncached_walk(self, spec, max_trace, bound, monkeypatch):
        monkeypatch.setattr(oracles, "_FRAMES", {})
        elems = oracles.enumerate_subgroup_elements(spec, max_trace, bound)
        n = 0
        for M in (M for ms in elems.values() for M in ms):
            assert oracles._axis(M) == _axis_by_cycle_walk(M), M
            n += 1
        assert n > 0

    def test_one_cycle_walk_per_reduced_cycle(self, monkeypatch):
        spec, max_trace, bound = SEED0_WINDOWS[0]
        cycles = set()
        for t, ms in oracles.enumerate_subgroup_elements(spec, max_trace, bound).items():
            D = t * t - 4
            for M in ms:
                R, _ = oracles.reduce_with_transform(oracles.form_of_matrix(M))
                cycles.add((min(oracles._cycle(R, D)[0]), D))
        calls = []
        cycle = oracles._cycle
        monkeypatch.setattr(oracles, "_cycle", lambda R, D: calls.append(D) or cycle(R, D))
        monkeypatch.setattr(oracles, "_FRAMES", {})
        got = oracles.bruteforce_subgroup_counts(spec, max_trace, bound)
        assert got == {e.trace: e.multiplicity
                       for e in ls.subgroup_spectrum(spec, max_trace).entries}
        assert len(calls) == len(cycles) > 0
        oracles.bruteforce_subgroup_counts(spec, max_trace, bound)
        assert len(calls) == len(cycles)  # the frames outlive the call


def _ambient_conjugator_by_cycle_walk(V, W):
    """The former ambient_conjugator: reduce both fixed-point forms, then walk
    W's cycle until it meets V's reduced form or comes back."""
    tV = V[0] + V[3]
    if tV != W[0] + W[3]:
        return None
    qV, qW = oracles.form_of_matrix(V), oracles.form_of_matrix(W)
    if gcd(*qV) != gcd(*qW):
        return None
    D = tV * tV - 4
    rV, hV = oracles.reduce_with_transform(qV)
    rW, hW = oracles.reduce_with_transform(qW)
    cur, acc = rW, ls.M_ID
    while cur != rV:
        cur, step = oracles.rho_step(cur, D)
        acc = ls.mat_mul(acc, step)
        if cur == rW:
            return None
    return ls.mat_mul(hV, oracles.mat_inv(ls.mat_mul(hW, acc)))


def _gamma_conjugate_reference(V, W, spec):
    """The former decision: a cycle-walk conjugator h, and the Pell automorph z
    of V's axis; V ~ W in Gamma iff some z^i h lies in Gamma.  z^d lies in
    +-Gamma for some d <= m, so i < m covers every coset."""
    h = _ambient_conjugator_by_cycle_walk(V, W)
    if h is None:
        return False
    q = oracles.form_of_matrix(V)
    a, b, c = (x // gcd(*q) for x in q)
    T, U = oracles.pell_fundamental(b * b - 4 * a * c)
    z = oracles.matrix_of_form((a * U, b * U, c * U), T)
    for _ in range(ls.group_invariants(spec)[2]):
        if ls.contains(spec, h):
            return True
        h = ls.mat_mul(z, h)
    return False


class TestGammaConjugate:
    @pytest.mark.parametrize("spec,bound", [(ls.GroupSpec.principal2(), 30),
                                            (ls.GroupSpec.gamma0(11), 60),
                                            (ls.GroupSpec.gamma1(11), 60)],
                             ids=["gamma2", "gamma0_11", "gamma1_11"])
    def test_matches_cycle_walk_reference_on_enumerated_pairs(self, spec, bound):
        # pairs of different traces are rejected by the trace test on both sides
        pairs = conjugate = 0
        for elems in oracles.enumerate_subgroup_elements(spec, 14, bound).values():
            for i, V in enumerate(elems):
                for W in elems[i:]:
                    want = _gamma_conjugate_reference(V, W, spec)
                    assert oracles.gamma_conjugate(V, W, spec) == want, (spec, V, W)
                    assert (oracles.ambient_conjugator(V, W) is None) == \
                        (_ambient_conjugator_by_cycle_walk(V, W) is None)
                    pairs += 1
                    conjugate += want
        assert pairs > conjugate > 0
