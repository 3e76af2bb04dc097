import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zal import degeneration as dg


class TestWolpertLength:
    def test_inversion_points(self):
        assert dg.wolpert_length(math.exp(-2 * math.pi ** 2)) == pytest.approx(1.0)
        assert dg.wolpert_length(math.exp(-4 * math.pi ** 2)) == pytest.approx(0.5)

    @settings(max_examples=40)
    @given(st.floats(min_value=1e-12, max_value=0.49),
           st.floats(min_value=1.01, max_value=2.0))
    def test_monotone_increasing(self, t, factor):
        t2 = min(t * factor, 0.9999)
        assert dg.wolpert_length(t2) > dg.wolpert_length(t)

    def test_domain(self):
        for bad in (0.0, 1.0, 1.5, -1.0):
            with pytest.raises(ValueError):
                dg.wolpert_length(bad)


class TestMatrices:
    def test_two_vertex_display(self):
        m = dg.StarGraphModel(g=1, n=1, edge_lengths=(1.0,))
        assert np.allclose(dg.matrix_A(m), [[1, -1], [-1, 1]])

    def test_display_first_row_alpha3(self):
        M = dg.matrix_A(dg.StarGraphModel(g=1, n=3, edge_lengths=(1.0, 2.0, 3.0)))
        assert np.allclose(M[0], [2.0, -1 / 3, -2 / 3, -1.0])
        assert np.allclose(M[1], [-1.0, 1.0, 0.0, 0.0])
        assert np.allclose(M[2], [-2.0, 0.0, 2.0, 0.0])
        assert np.allclose(M[3], [-3.0, 0.0, 0.0, 3.0])

    def test_constants_in_kernel(self):
        m = dg.StarGraphModel(g=2, n=4, edge_lengths=(0.3, 0.7, 1.1, 0.2))
        ones = np.ones(5)
        assert np.linalg.norm(dg.matrix_A(m) @ ones) < 1e-13

    def test_matrix_B_requires_uniform(self):
        m = dg.StarGraphModel(g=1, n=2, edge_lengths=(1.0, 2.0))
        with pytest.raises(ValueError):
            dg.matrix_B(m)

    def test_B_trace(self):
        m = dg.star_graph_uniform(1, 3, 1e-3)
        l = m.edge_lengths[0]
        assert np.trace(dg.matrix_B(m)) == pytest.approx(3 * l + 3 * l / m.alpha)


class TestGraphSpectrum:
    @pytest.mark.parametrize("g,n", [(g, n) for g in (0, 1, 2) for n in range(1, 9)
                                     if 2 * g - 2 + n > 0])
    def test_closed_form_B(self, g, n):
        model = dg.star_graph_uniform(g, n, 1e-3)
        got = dg.graph_spectrum(dg.matrix_B(model))
        want = dg.closed_form_B_spectrum(model)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12 * want[-1]

    def test_closed_form_over_length_range(self):
        for l in (1e-6, 1e-3, 1.0):
            model = dg.StarGraphModel(g=1, n=4, edge_lengths=(l,) * 4)
            got = dg.graph_spectrum(dg.matrix_B(model))
            want = dg.closed_form_B_spectrum(model)
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12 * want[-1]

    @settings(max_examples=25)
    @given(st.floats(min_value=0.25, max_value=4.0))
    def test_scaling_homogeneity(self, c):
        model = dg.StarGraphModel(g=1, n=3, edge_lengths=(0.2, 0.5, 0.9))
        base = dg.graph_spectrum(dg.matrix_A(model))
        scaled = dg.graph_spectrum(c * dg.matrix_A(model))
        assert np.allclose(scaled, [c * v for v in base], rtol=1e-10, atol=1e-14)

    def test_zero_eigenvalue_simple(self):
        model = dg.star_graph_perturbed(1, 5, 1e-6, seed=9)
        spec = dg.graph_spectrum(dg.matrix_A(model))
        assert abs(spec[0]) < 1e-12
        assert spec[1] > 1e-6

    def test_perturbed_A_close_to_B(self):
        t = 1e-8
        pert = dg.star_graph_perturbed(1, 3, t, seed=4)
        uni = dg.star_graph_uniform(1, 3, t)
        ea = dg.graph_spectrum(dg.matrix_A(pert))
        eb = dg.graph_spectrum(dg.matrix_B(uni))
        l = dg.wolpert_length(t)
        assert max(abs(a - b) for a, b in zip(ea, eb)) < 1e-3 * l

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dg.StarGraphModel(g=1, n=17, edge_lengths=(1.0,) * 17)


class TestBurgerProduct:
    def test_uniform_exact_any_t(self):
        for t in (0.3, 1e-2, 1e-5, 1e-9):
            model = dg.star_graph_uniform(1, 4, t)
            assert dg.burger_product(model) == pytest.approx(
                4 / model.alpha + 1, rel=1e-12)

    def test_perturbed_is_exact_by_matrix_tree(self):
        # a star has a single spanning tree, so the eigenvalue product is
        # (sum of masses)/(hub mass) * prod l_j for ANY admissible lengths
        for t in (1e-4, 1e-6, 1e-8):
            model = dg.star_graph_perturbed(1, 2, t, seed=3)
            assert abs(dg.burger_product(model) - 2.0) < 1e-10
        wild = dg.StarGraphModel(g=1, n=3, edge_lengths=(0.1, 2.3, 7.9))
        assert dg.burger_product(wild) == pytest.approx(3 / wild.alpha + 1, rel=1e-12)

    def test_single_neck_torus(self):
        model = dg.star_graph_perturbed(1, 1, 1e-8, seed=5)
        assert dg.burger_product(model) == pytest.approx(2.0, rel=1e-2)


class TestSmallEigenvalues:
    def test_composed_limit(self):
        model = dg.star_graph_perturbed(1, 2, 1e-8, seed=1)
        lam = dg.laplacian_small_eigenvalues(model)
        prod = math.prod(v / l for v, l in zip(lam, model.edge_lengths))
        target = (1 / (2 * math.pi ** 2)) ** 2 * (2 / model.alpha + 1)
        assert abs(prod / target - 1) < 0.01

    def test_linear_in_lengths(self):
        m1 = dg.StarGraphModel(g=1, n=2, edge_lengths=(0.2, 0.3))
        m2 = dg.StarGraphModel(g=1, n=2, edge_lengths=(0.4, 0.6))
        l1 = dg.laplacian_small_eigenvalues(m1)
        l2 = dg.laplacian_small_eigenvalues(m2)
        assert np.allclose(l2, [2 * v for v in l1], rtol=1e-12)


class TestConsistency:
    @pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-8])
    def test_exact_lengths_agree(self, t):
        lhs, rhs = dg.degeneration_consistency(1, 2, t, 1.3, [0.7, 2.1])
        assert abs(lhs / rhs - 1) < 1e-12

    @pytest.mark.parametrize("t", [1e-2, 1e-3, 0.25, 0.5])
    def test_plumbing_identity_exact(self, t):
        l = dg.wolpert_length(t)
        assert abs(abs(t) ** (1 / 6) - math.exp(-math.pi ** 2 / (3 * l))) < 4e-16

    def test_limit_value(self):
        n, g = 2, 1
        Zx, Zt = 1.3, [0.7, 2.1]
        lhs, _ = dg.degeneration_consistency(g, n, 1e-4, Zx, Zt)
        target = (n / (2 * g - 2 + n) + 1) / math.pi ** n * Zx * math.prod(Zt)
        assert lhs / abs(1e-4) ** (n / 6) == pytest.approx(target, rel=1e-14)

    def test_perturbed_routes_converge(self):
        gaps = []
        for t in (1e-3, 1e-5, 1e-7):
            lhs, rhs = dg.degeneration_consistency(1, 2, t, 1.0, [1.0, 1.0],
                                                   perturb_seed=8)
            gaps.append(abs(lhs / rhs - 1))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_no_necks_rejected(self):
        with pytest.raises(ValueError):
            dg.degeneration_consistency(2, 0, 1e-4, 1.0, [])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            dg.degeneration_consistency(1, 2, 1e-4, -1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            dg.degeneration_consistency(1, 2, 1e-4, 1.0, [1.0])


def test_sweep_rows_shape():
    rows = dg.sweep_rows(1, 2, [1e-2, 1e-4], perturb_seed=1)
    assert len(rows) == 2
    for r in rows:
        assert set(r) == {"t", "eigenvalues", "product", "target", "ratio"}
        assert len(r["eigenvalues"]) == 3
