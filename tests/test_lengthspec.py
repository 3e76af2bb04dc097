import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zal import lengthspec as ls
from zal import oracles


class TestGroupSpec:
    def test_invariants(self):
        assert ls.group_invariants(ls.GroupSpec.principal2()) == (0, 3, 6)
        assert ls.group_invariants(ls.GroupSpec.gamma0(11)) == (1, 2, 12)
        assert ls.group_invariants(ls.GroupSpec.gamma1(11)) == (1, 10, 60)
        assert ls.group_invariants(ls.GroupSpec.full()) == (0, 1, 1)

    def test_gamma0_13_genus0(self):
        assert ls.group_invariants(ls.GroupSpec.gamma0(13)) == (0, 2, 14)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ls.GroupSpec.gamma0(12)
        with pytest.raises(ValueError):
            ls.GroupSpec.gamma0(7)
        with pytest.raises(ValueError):
            ls.GroupSpec.gamma1(121)

    def test_constructors_are_the_direct_spellings(self):
        K = ls.GroupKind
        assert ls.GroupSpec.full() == ls.GroupSpec(K.GAMMA0, 1)
        assert ls.GroupSpec.principal2() == ls.GroupSpec(K.GAMMA, 2)
        assert ls.GroupSpec.gamma0(13) == ls.GroupSpec(K.GAMMA0, 13)
        assert ls.GroupSpec.gamma1(11) == ls.GroupSpec(K.GAMMA1, 11)

    @pytest.mark.parametrize("kind,level", [
        ("GAMMA1", 1), ("GAMMA", 1), ("GAMMA0", 2), ("GAMMA1", 2), ("GAMMA", 3),
        ("GAMMA", 11), ("GAMMA0", 12), ("GAMMA0", 0), ("GAMMA0", -11), ("GAMMA1", None)])
    def test_rejected_pairs(self, kind, level):
        with pytest.raises(ValueError):
            ls.GroupSpec(ls.GroupKind[kind], level)

    def test_labels(self):
        specs = (ls.GroupSpec.full(), ls.GroupSpec.principal2(),
                 ls.GroupSpec.gamma0(11), ls.GroupSpec.gamma1(13))
        assert [s.label() for s in specs] == ["full", "gamma2", "gamma0(11)", "gamma1(13)"]

    def test_torsion_flags(self):
        assert ls.GroupSpec.principal2().torsion_free
        assert ls.GroupSpec.gamma0(11).torsion_free
        assert not ls.GroupSpec.gamma0(13).torsion_free
        assert ls.GroupSpec.gamma1(13).torsion_free
        assert not ls.GroupSpec.full().torsion_free


def _closed_form_invariants(spec):
    """(g, n, m, torsion_free) from the per-kind formulae that the coset
    table replaced, kept here as the reference it is checked against."""
    p = spec.level
    if p == 1:
        return 0, 1, 1, False
    if spec.kind == ls.GroupKind.GAMMA:  # Gamma(2)
        return 0, 3, 6, True
    if spec.kind == ls.GroupKind.GAMMA0:
        m = p + 1
        nu2 = 1 + (1 if p % 4 == 1 else -1)
        nu3 = 1 + (1 if p % 3 == 1 else -1)
        return (12 + m - 3 * nu2 - 4 * nu3 - 12) // 12, 2, m, nu2 == nu3 == 0
    m, n = (p * p - 1) // 2, p - 1  # Gamma1(p), p >= 11: no torsion
    return (12 + m - 6 * n) // 12, n, m, True


def _closed_form_contains(spec, M):
    """Membership by the per-kind rules that the nested level test
    replaced, kept here as the reference it is checked against."""
    a, b, c, d = M
    p = spec.level
    if p == 1:
        return True
    if spec.kind == ls.GroupKind.GAMMA:  # Gamma(2)
        return b % 2 == 0 and c % 2 == 0 and a % 2 == 1 and d % 2 == 1
    if c % p:
        return False
    if spec.kind == ls.GroupKind.GAMMA0:
        return True
    return (a % p == 1 and d % p == 1) or (a % p == p - 1 and d % p == p - 1)


class TestTableInvariants:
    """Genus, cusps, index and torsion read off the coset table agree with
    the closed forms for every kind."""

    SPECS = ([ls.GroupSpec.full(), ls.GroupSpec.principal2()]
             + [ls.GroupSpec.gamma0(p) for p in range(11, 200) if ls._is_prime(p)]
             + [ls.GroupSpec.gamma1(p) for p in range(11, 80) if ls._is_prime(p)])

    def test_matches_closed_forms(self):
        for spec in self.SPECS:
            g, n, m, free = _closed_form_invariants(spec)
            assert ls.group_invariants(spec) == (g, n, m), spec.label()
            assert spec.torsion_free == free, spec.label()

    def test_gamma0_torsion_free_exactly_at_11_mod_12(self):
        for p in range(11, 200):
            if ls._is_prime(p):
                assert ls.GroupSpec.gamma0(p).torsion_free == (p % 12 == 11), p


def _cycle_count(D):
    """Number of reduction cycles of discriminant D, all contents included."""
    return len(oracles.form_cycles(oracles.reduced_forms(D), D))


class TestClassNumber:
    def test_fundamental_cases(self):
        # brute-force reduction-cycle values, fixed by hand enumeration
        assert _cycle_count(5) == 1
        assert _cycle_count(12) == 2
        assert _cycle_count(32) == 3
        assert _cycle_count(45) == 3

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            _cycle_count(4)
        with pytest.raises(ValueError):
            _cycle_count(7)   # 3 mod 4
        with pytest.raises(ValueError):
            _cycle_count(-8)

    def test_cycle_partition_covers_reduced_forms(self):
        for D in (5, 8, 12, 13, 60, 140, 316):
            forms = oracles.reduced_forms(D)
            cycles = oracles.form_cycles(forms, D)
            assert sorted(f for c in cycles for f in c) == sorted(forms)
            for cyc in cycles:
                assert oracles.rho_step(cyc[-1], D)[0] == cyc[0]


def _det(S):
    return S[0] * S[3] - S[1] * S[2]


def _assert_reduces(form):
    D = form[1] ** 2 - 4 * form[0] * form[2]
    R, h = oracles.reduce_with_transform(form)
    assert _det(h) == 1
    assert oracles.subst(form, h) == R
    assert oracles.is_reduced(R, D)


class TestRhoStep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=5, max_value=4000).filter(oracles.is_discriminant))
    def test_step_matrix_carries_reduced_forms(self, D):
        for f in oracles.reduced_forms(D):
            g, S = oracles.rho_step(f, D)
            assert _det(S) == 1
            assert oracles.subst(f, S) == g
            assert oracles.is_reduced(g, D)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(-300, 300), st.integers(-300, 300),
                     st.integers(-300, 300))
           .filter(lambda f: oracles.is_discriminant(f[1] ** 2 - 4 * f[0] * f[2])))
    def test_reduce_with_transform_of_any_form(self, form):
        _assert_reduces(form)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(-10 ** 40, 10 ** 40)] * 3)
           .filter(lambda f: oracles.is_discriminant(f[1] ** 2 - 4 * f[0] * f[2])))
    def test_reduce_with_transform_of_40_digit_forms(self, form):
        _assert_reduces(form)

    @pytest.mark.parametrize("n", [12_000, 10 ** 20])
    def test_reduce_with_transform_when_b_sits_near_minus_2c(self, n):
        # D = 5; a walk that never centres b takes about n steps from here
        _assert_reduces((1, 1 - 2 * n, n * n - n - 1))

    def test_reduce_with_transform_states_its_bound(self, monkeypatch):
        # c^2 = 89699^2 <= 16^8 * 5: 8 quartering steps plus 2
        monkeypatch.setattr(oracles, "is_reduced", lambda form, D: False)
        with pytest.raises(RuntimeError, match="bound of 10 steps"):
            oracles.reduce_with_transform((1, 1 - 2 * 300, 300 * 300 - 300 - 1))


class TestModularSpectrum:
    def test_trace3_entry(self):
        sp = ls.modular_spectrum(3)
        assert len(sp.entries) == 1
        e = sp.entries[0]
        assert e.trace == 3 and e.multiplicity == 1
        assert e.length == pytest.approx(2 * math.acosh(1.5), abs=1e-15)
        assert e.length == pytest.approx(1.9248473002384139, abs=1e-13)

    def test_empty_below_three(self):
        assert ls.modular_spectrum(2).entries == ()

    def test_word_oracle_through_12(self):
        words = oracles.word_class_counts(12)
        prod = {e.trace: e.multiplicity for e in ls.modular_spectrum(12).entries}
        assert words == prod

    def test_counting_function_monotone(self):
        # trace 34 >= 2 cosh(7/2), so the spectrum is complete to length 7
        sp = ls.modular_spectrum(34)
        grid = [sp.counting(L) for L in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]]
        assert grid == sorted(grid)
        assert sp.counting(7.0) == oracles_count_below(7.0)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=3, max_value=16), st.integers(min_value=3, max_value=16))
    def test_merging_invariance(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert tuple(e for e in ls.modular_spectrum(hi).entries if e.trace <= lo) == \
            ls.modular_spectrum(lo).entries


def oracles_count_below(L: float) -> int:
    """Word-oracle count of primitive classes with length <= L."""
    tmax = int(2 * math.cosh(L / 2)) + 1
    counts = oracles.word_class_counts(tmax)
    return sum(m for t, m in counts.items() if 2 * math.acosh(t / 2) <= L)


class TestAmbientClasses:
    def test_representatives_have_right_trace_and_form(self):
        for t in range(3, 15):
            for M in oracles.ambient_classes(t):
                assert M[0] + M[3] == t
                assert M[0] * M[3] - M[1] * M[2] == 1

    def test_representatives_pairwise_nonconjugate(self):
        for t in (6, 7, 10, 12):
            reps = oracles.ambient_classes(t)
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert oracles.ambient_conjugator(reps[i], reps[j]) is None

    def test_representatives_primitive(self):
        full = ls.GroupSpec.full()
        for t in (7, 14):  # traces where proper powers of the same trace exist
            for M in oracles.ambient_classes(t):
                assert not oracles.is_power_in_group(M, full)


def _ambient_classes_by_content_scan(t):
    """The former ambient_classes: for each content u with (t, u) the
    fundamental Pell solution of d0 = (t^2 - 4)/u^2, the u-multiples of one
    primitive reduced form per cycle of d0."""
    D = t * t - 4
    reps = []
    u = 1
    while u * u <= D:
        if D % (u * u) == 0:
            d0 = D // (u * u)
            if d0 % 4 in (0, 1) and d0 >= 5 and oracles.pell_fundamental(d0) == (t, u):
                prim = [f for f in oracles.reduced_forms(d0) if math.gcd(*f) == 1]
                for cyc in oracles.form_cycles(prim, d0):
                    f0 = cyc[0]
                    reps.append(oracles.matrix_of_form((u * f0[0], u * f0[1], u * f0[2]), t))
        u += 1
    return reps


def _primitive_automorph(form):
    """The former oracles.primitive_automorph: the automorph of ``form``
    built from the fundamental Pell solution of its primitive part."""
    u0 = math.gcd(*form)
    a0, b0, c0 = form[0] // u0, form[1] // u0, form[2] // u0
    T, U = oracles.pell_fundamental(b0 * b0 - 4 * a0 * c0)
    return oracles.matrix_of_form((a0 * U, b0 * U, c0 * U), T)


class TestCycleWalk:
    def test_ambient_classes_match_content_scan(self):
        for t in range(3, 301):
            assert sorted(oracles.ambient_classes(t)) == \
                sorted(_ambient_classes_by_content_scan(t)), t

    def test_step_product_is_fundamental_automorph(self):
        # every cycle, any content, principal cycles included: the step
        # product is +- the automorph built from pell_fundamental
        for D in range(5, 2000):
            if not oracles.is_discriminant(D):
                continue
            for cyc in oracles.form_cycles(oracles.reduced_forms(D), D):
                M = oracles._cycle(cyc[0], D)[1]
                A = _primitive_automorph(cyc[0])
                assert M in (A, tuple(-x for x in A)), (D, cyc[0])

    def test_walk_rejects_unreduced_start(self):
        with pytest.raises(ValueError):
            oracles._cycle((1, 0, -5), 20)


def _cycles_by_least_remaining(forms, D):
    """The former cycle partition: repeatedly walk from the least form left."""
    remaining = set(forms)
    out = []
    while remaining:
        cyc, M = oracles._cycle(min(remaining), D)
        remaining.difference_update(cyc)
        out.append((cyc, M))
    return out


class TestCycleOrder:
    def test_same_cycles_and_representatives_as_least_remaining_walk(self):
        for t in range(3, 201):
            D = t * t - 4
            want = _cycles_by_least_remaining(oracles.reduced_forms(D), D)
            assert oracles.form_cycles(oracles.reduced_forms(D), D) == [c for c, _ in want], t
            assert oracles.ambient_classes(t) == [oracles.matrix_of_form(c[0], t) for c, M in want
                                             if abs(M[0] + M[3]) == t], t


class TestSubgroupSpectrum:
    def test_full_group_lift_is_identity(self):
        assert ls.subgroup_spectrum(ls.GroupSpec.full(), 14).entries == \
            ls.modular_spectrum(14).entries

    def test_principal2_bruteforce(self):
        spec = ls.GroupSpec.principal2()
        bf = oracles.bruteforce_subgroup_counts(spec, 10, 60)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 10).entries}
        assert bf == prod

    def test_gamma0_11_bruteforce(self):
        spec = ls.GroupSpec.gamma0(11)
        bf = oracles.bruteforce_subgroup_counts(spec, 8, 200)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 8).entries}
        assert bf == prod

    # Gamma1(p) for p >= 17 has no class below trace p - 2, so at trace 14 it
    # would compare two empty spectra; Gamma1(29) and Gamma1(31) are checked
    # at their first trace in test_bruteforce_gamma1_first_trace.
    @pytest.mark.parametrize("kind,p,bound", [("gamma0", 13, 80), ("gamma0", 17, 120),
                                              ("gamma0", 23, 200), ("gamma0", 29, 200),
                                              ("gamma0", 31, 200), ("gamma1", 13, 400)])
    def test_bruteforce_at_trace_14(self, kind, p, bound):
        spec = getattr(ls.GroupSpec, kind)(p)
        bf = oracles.bruteforce_subgroup_counts(spec, 14, bound)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 14).entries}
        assert bf == prod

    @pytest.mark.parametrize("p,bound", [(13, 80), (17, 120), (19, 120), (23, 120),
                                         (29, 200), (31, 220)])
    def test_gamma0_bruteforce_at_trace_20(self, p, bound):
        spec = ls.GroupSpec.gamma0(p)
        bf = oracles.bruteforce_subgroup_counts(spec, 20, bound)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 20).entries}
        assert bf == prod

    # the only trace up to p + 1 is p - 2; at B = 8000 Gamma1(31) finds 116 of its 120
    @pytest.mark.parametrize("p,bound,classes", [(29, 8000, 70), (31, 10000, 120)])
    def test_bruteforce_gamma1_first_trace(self, p, bound, classes):
        spec = ls.GroupSpec.gamma1(p)
        bf = oracles.bruteforce_subgroup_counts(spec, p + 1, bound)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, p + 1).entries}
        assert bf == prod == {p - 2: classes}

    def test_lengths_are_multiples_of_ambient(self):
        amb = {e.trace: e.length for e in ls.modular_spectrum(12).entries}
        for spec in (ls.GroupSpec.principal2(), ls.GroupSpec.gamma1(11)):
            for e in ls.subgroup_spectrum(spec, 12).entries:
                assert any(
                    abs(e.length - k * l0) < 1e-12 and ls.trace_of_power(t0, k) == e.trace
                    for t0, l0 in amb.items() for k in range(1, 9))

    def test_class_representatives_live_in_subgroup(self):
        spec = ls.GroupSpec.gamma0(11)
        reps = oracles.subgroup_class_representatives(spec, 8)
        prod = {e.trace: e.multiplicity for e in ls.subgroup_spectrum(spec, 8).entries}
        assert {t: len(v) for t, v in reps.items()} == prod
        for t, mats in reps.items():
            for W in mats:
                assert ls.contains(spec, W) and W[0] + W[3] == t

    def test_orbit_sizes_divide_coset_count(self):
        spec = ls.GroupSpec.principal2()
        _, _, m = ls.group_invariants(spec)
        for t in range(3, 9):
            for M in oracles.ambient_classes(t):
                perm = ls.coset_permutation(spec, M)
                assert sum(k for _, k in ls._orbits(perm)) == m


PRIMES = [p for p in range(11, 32) if ls._is_prime(p)]
ALL_SPECS = ([ls.GroupSpec.principal2(), ls.GroupSpec.gamma0(11), ls.GroupSpec.gamma1(11)]
             + [ls.GroupSpec.gamma0(p) for p in PRIMES[1:]]
             + [ls.GroupSpec.gamma1(p) for p in PRIMES[1:]] + [ls.GroupSpec.full()])


@st.composite
def _ts_words(draw):
    """A product of up to 40 factors T, T^-1, S (S^-1 = -S)."""
    M = ls.M_ID
    for g in draw(st.lists(st.sampled_from([(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)]),
                           max_size=40)):
        M = ls.mat_mul(M, g)
    return M


class TestCosetTables:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_table_size_and_labels(self, spec):
        labels, index, reps, _ = ls._coset_table(spec)
        _, _, m = ls.group_invariants(spec)
        assert len(labels) == len(set(labels)) == m
        for lab, rep in zip(labels, reps):
            assert ls._label(spec, rep) == lab
            assert rep[0] * rep[3] - rep[1] * rep[2] == 1

    def test_table_built_once_per_group(self):
        assert ls._coset_table(ls.GroupSpec.gamma1(11)) is \
            ls._coset_table(ls.GroupSpec.gamma1(11))

    def test_label_action_matches_multiplication(self):
        spec = ls.GroupSpec.gamma1(11)
        labels, _, reps, _ = ls._coset_table(spec)
        M = oracles.ambient_classes(5)[0]
        for lab, rep in list(zip(labels, reps))[::7]:
            assert ls._label_act(spec, lab, M) == ls._label(spec, ls.mat_mul(rep, M))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_walk_records_generator_permutations(self, spec):
        assert ls._coset_table(spec)[3] == tuple(ls.coset_permutation(spec, g) for g in ls._GENS)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_orbit_sizes_compose_s_and_t(self, spec):
        # S T^r read off the recorded permutations, against acting on every label
        for r in range(spec.level):
            perm = ls.coset_permutation(spec, (0, -1, 1, r))
            assert ls._orbit_sizes(spec, r, False) == tuple(sorted(k for _, k in ls._orbits(perm))), r

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ALL_SPECS), st.integers(3, 80), st.data())
    def test_orbit_sizes_depend_only_on_key(self, spec, t, data):
        # the table behind both spectrum functions against the per-class walk
        M = data.draw(st.sampled_from(oracles.ambient_classes(t)))
        N = spec.level
        u = math.gcd(*oracles.form_of_matrix(M))
        sizes = sorted(k for _, k in ls._orbits(ls.coset_permutation(spec, M)))
        assert tuple(sizes) == ls._orbit_sizes(spec, t % N, u % N == 0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_SPECS), _ts_words())
    def test_membership_is_identity_label(self, spec, M):
        id_label = ls._label(spec, ls.M_ID)
        assert ls.contains(spec, M) == (ls._label(spec, M) == id_label)
        # T^N lies in the principal congruence subgroup of level N, which is
        # normal in SL2(Z) and contained in every group here
        W = ls.mat_mul(ls.mat_mul(M, (1, spec.level, 0, 1)), oracles.mat_inv(M))
        assert ls.contains(spec, W) and ls._label(spec, W) == id_label

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_SPECS), _ts_words())
    def test_contains_matches_per_kind_rules(self, spec, M):
        N = spec.level
        W = ls.mat_mul(ls.mat_mul(M, (1, N, 0, 1)), oracles.mat_inv(M))
        V = (2, 1, N, (N + 1) // 2) if N % 2 else (1, 1, N, 3)  # in Gamma0(N) only
        for X in (M, W, tuple(-x for x in M), V, ls.mat_mul(W, V)):
            assert ls.contains(spec, X) == _closed_form_contains(spec, X)

    def test_walk_size_checked_against_index_formula(self, monkeypatch):
        ls._coset_table.cache_clear()
        monkeypatch.setattr(ls, "_index", lambda s: 15)
        with pytest.raises(ArithmeticError):
            ls._coset_table(ls.GroupSpec.gamma0(13))


class TestCSV:
    def test_header_and_precision(self):
        text = ls.spectrum_to_csv(ls.modular_spectrum(4))
        lines = text.strip().split("\n")
        assert lines[0] == "trace,length,multiplicity"
        assert lines[1].startswith("3,1.9248473002384139")
        assert lines[2].split(",")[2] == "2"

    def test_empty_spectrum_has_header_only(self):
        text = ls.spectrum_to_csv(ls.subgroup_spectrum(ls.GroupSpec.gamma0(11), 2))
        assert text == "trace,length,multiplicity\n"


class TestConjugacyOracle:
    def test_conjugates_detected(self):
        spec = ls.GroupSpec.principal2()
        reps = oracles.subgroup_class_representatives(spec, 6)[6]
        g = (1, 2, 0, 1)  # an element of the subgroup
        for W in reps:
            conj = ls.mat_mul(ls.mat_mul(g, W), oracles.mat_inv(g))
            assert oracles.gamma_conjugate(W, conj, spec)

    def test_distinct_classes_separated(self):
        spec = ls.GroupSpec.principal2()
        reps = oracles.subgroup_class_representatives(spec, 6)[6]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not oracles.gamma_conjugate(reps[i], reps[j], spec)

    def test_ambient_conjugate_but_not_in_subgroup(self):
        # two level-2 classes over the same ambient class are ambient-conjugate
        spec = ls.GroupSpec.principal2()
        reps = oracles.subgroup_class_representatives(spec, 6)[6]
        found_pair = False
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if oracles.ambient_conjugator(reps[i], reps[j]) is not None:
                    found_pair = True
        assert found_pair


def _pell_linear(d0, u_max):
    """The former pell_fundamental: first U <= u_max with d0 U^2 + 4 square."""
    for u in range(1, u_max + 1):
        t = math.isqrt(d0 * u * u + 4)
        if t * t == d0 * u * u + 4:
            return t, u
    return None


def _iroot(n, k):
    """floor(n ** (1/k)) for integers n >= 1, by Newton's method."""
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_proper_power(d0, T):
    """True if (T + U sqrt d0)/2 is the k-th power, k >= 2, of a smaller unit
    of trace t with t^2 - d0 u^2 = 4 (traces: T = trace_of_power(t, k))."""
    k = 2
    while ls.trace_of_power(3, k) <= T:  # 3 is the smallest hyperbolic trace
        if ls._is_prime(k):
            r = _iroot(T, k)
            for t in (r - 1, r, r + 1):
                if t >= 3 and ls.trace_of_power(t, k) == T and (t * t - 4) % d0 == 0:
                    q = (t * t - 4) // d0
                    if math.isqrt(q) ** 2 == q:
                        return True
        k += 1
    return False


class TestPell:
    LINEAR_CAP = 2000

    def test_matches_linear_search_below_3000(self):
        # the linear search is the oracle wherever it terminates within the
        # cap; beyond the cap it must find nothing, and minimality is checked
        # by ruling out every proper power of a smaller unit
        beyond = 0
        for d0 in range(5, 3000):
            if not oracles.is_discriminant(d0):
                continue
            T, U = oracles.pell_fundamental(d0)
            assert T > 0 and U > 0 and T * T - d0 * U * U == 4
            if U <= self.LINEAR_CAP:
                assert _pell_linear(d0, U) == (T, U), d0
            else:
                beyond += 1
                assert _pell_linear(d0, self.LINEAR_CAP) is None, d0
                assert not _is_proper_power(d0, T), d0
        assert beyond > 0

    def test_proper_power_oracle_detects_squares(self):
        for d0 in (5, 12, 21, 61, 244):
            T, U = oracles.pell_fundamental(d0)
            assert _is_proper_power(d0, ls.trace_of_power(T, 2))
            assert _is_proper_power(d0, ls.trace_of_power(T, 3))

    def test_large_fundamental_unit(self):
        import time
        t0 = time.perf_counter()
        T, U = oracles.pell_fundamental(244)
        assert time.perf_counter() - t0 < 1.0
        assert T * T - 244 * U * U == 4
        assert U == 226153980

    def test_rejects_non_discriminant(self):
        with pytest.raises(ValueError):
            oracles.pell_fundamental(16)
