"""The oracles' own decisions: the word walk and the power test."""

import sys

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
