import math
import warnings

import numpy as np
import pytest

from fraclap.errors import NumericalError
from fraclap.fractional import spectral_kernel
from fraclap.graph import build_graph, laplacian_apply, mu_inner
from fraclap.spectral import ZERO_EIGENVALUE_REL, decompose, heat_apply, heat_kernel

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestDecompose:
    def test_p2_closed_form(self, p2):
        sd = decompose(p2)
        assert np.allclose(sd.lambdas, [0.0, 2.0], atol=1e-12)
        assert np.allclose(sd.phis[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-10)
        assert np.allclose(sd.phis[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-10)

    def test_k3_spectrum(self, k3):
        sd = decompose(k3)
        assert np.allclose(sd.lambdas, [0.0, 3.0, 3.0], atol=1e-10)

    def test_weight_scaling(self):
        g = build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 3.0)])
        sd = decompose(g)
        assert np.allclose(sd.lambdas, [0.0, 6.0], atol=1e-12)

    def test_unresolvable_second_zero_mode_raises(self):
        # lambda = 1 is exact (eigenfunction (1, 0, -1)) but lies below the
        # zero threshold relative to lambda_max = 2e300; it must not be
        # reported as a second constant mode
        g = build_graph([("x0", 1.0), ("x1", 1e-300), ("x2", 1.0)],
                        [("x0", "x1", 1.0), ("x1", "x2", 1.0)])
        with pytest.raises(NumericalError, match="one zero mode"):
            decompose(g)

    def test_small_eigenvalue_below_fixed_threshold_raises(self):
        # the threshold is fixed, not eigh's resolution: lambda_1 ~ 1e-11 of
        # a unit path bridged by w = 1e-11 is well resolved, yet lies below
        # 1e-10 * lambda_max = 2e-10
        g = build_graph([(f"x{i}", 1.0) for i in range(4)],
                        [("x0", "x1", 1.0), ("x1", "x2", 1e-11), ("x2", "x3", 1.0)])
        with pytest.raises(NumericalError, match="threshold 2e-10 "):
            decompose(g)

    def test_single_vertex_keeps_its_zero_mode(self):
        # lambda_max = 0 makes the threshold 0, which the zero mode meets
        sd = decompose(build_graph([("only", 2.0)], []))
        assert np.array_equal(sd.lambdas, [0.0])

    @pytest.mark.parametrize("t", [1e-12, 1e-100, 1e-300])
    def test_weight_scale_scales_spectrum_and_kernel(self, random_connected, t):
        # scaling every w by t scales each lambda by t and the kernel by t^sigma;
        # the zero threshold is relative to lambda_max, not to max(1, lambda_max)
        g = random_connected(np.random.default_rng(5), 60)
        rows, cols, w, _ = g.edge_pattern
        upper = rows < cols
        scaled = build_graph(list(zip(g.ids, g.mu.tolist())),
                             [(g.ids[i], g.ids[j], t * x)
                              for i, j, x in zip(rows[upper], cols[upper], w[upper])])
        sd, sd_t = decompose(g), decompose(scaled)
        assert sd_t.lambdas[0] == 0.0
        assert np.max(np.abs(sd_t.lambdas - t * sd.lambdas)) <= 1e-14 * t * sd.lambdas[-1]
        kernel = spectral_kernel(sd, 0.5)
        gap = np.max(np.abs(spectral_kernel(sd_t, 0.5) - math.sqrt(t) * kernel))
        assert gap <= 1e-13 * math.sqrt(t) * np.max(np.abs(kernel))

    def test_zero_mode_is_normalized_constant(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            assert sd.lambdas[0] == 0.0
            assert np.all(sd.lambdas[1:] > 0)
            expected = 1.0 / math.sqrt(g.volume)
            assert np.max(np.abs(sd.phis[:, 0] - expected)) < 1e-10

    def test_mu_orthonormality(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            gram = sd.phis.T @ (g.mu[:, None] * sd.phis)
            assert np.max(np.abs(gram - np.eye(g.n))) < 1e-10

    def test_eigen_residual(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for i in range(g.n):
                r = laplacian_apply(g, sd.phis[:, i]) - sd.lambdas[i] * sd.phis[:, i]
                assert np.max(np.abs(r)) <= 1e-8 * (1.0 + sd.lambdas[i])

    def test_lambda_power_masks_zero_mode(self, er20):
        sd = decompose(er20)
        for s in (0.5, 2.0, -1.5):
            pw = sd.lambda_power(s)
            assert pw[0] == 0.0
            assert np.array_equal(pw[1:], sd.lambdas[1:] ** s)

    def test_sign_convention(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for i in range(g.n):
                col = sd.phis[:, i]
                nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
                assert col[nz[0]] > 0


def _dense_decompose(g):
    """decompose with every intermediate a dense n x n array: the reference
    for the edge-pattern assembly, which must give the same bits."""
    d = g.weights.sum(axis=1)
    root_mu = np.sqrt(g.mu)
    sym = (np.diag(d) - g.weights) / root_mu[:, None] / root_mu[None, :]
    sym = 0.5 * (sym + sym.T)
    lam, q = np.linalg.eigh(sym)
    lam = np.where(lam <= ZERO_EIGENVALUE_REL * float(lam[-1]), 0.0, lam)
    phis = q / root_mu[:, None]
    mag = np.abs(phis)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = phis[first, np.arange(phis.shape[1])] < 0
    phis[:, flip] = -phis[:, flip]
    return lam, phis


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestDecomposeBits:
    def test_matches_dense_assembly(self, all_graphs, random_connected):
        graphs = [*all_graphs.values(), random_connected(np.random.default_rng(300), 300)]
        for g in graphs:
            sd = decompose(g)
            lam, phis = _dense_decompose(g)
            assert _same_bits(sd.lambdas, lam)
            assert _same_bits(sd.phis, phis)


class TestHeatKernel:
    def test_p2_closed_form(self, p2):
        sd = decompose(p2)
        p = heat_kernel(sd, 0.5)
        expected = (1.0 - math.exp(-1.0)) / 2.0
        assert p[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_time_zero_is_identity_kernel(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            p = heat_kernel(sd, 0.0)
            assert np.max(np.abs(p - np.diag(1.0 / g.mu))) < 1e-9

    def test_equilibrium(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            p = heat_kernel(sd, 1e4)
            assert np.max(np.abs(p - 1.0 / g.volume)) < 1e-9

    def test_symmetry_exact(self, er20):
        sd = decompose(er20)
        for t in (0.01, 0.3, 2.0):
            p = heat_kernel(sd, t)
            assert np.array_equal(p, p.T)

    def test_mass_conservation(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for t in (0.01, 0.1, 1.0, 10.0):
                sums = heat_kernel(sd, t) @ g.mu
                assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_negative_time_rejected(self, p2):
        with pytest.raises(ValueError):
            heat_kernel(decompose(p2), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, p2, t):
        with pytest.raises(ValueError, match="time t must be finite and nonnegative"):
            heat_kernel(decompose(p2), t)


class TestHeatApply:
    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_bad_time_rejected(self, p2, t):
        with pytest.raises(ValueError, match="time t must be finite and nonnegative"):
            heat_apply(decompose(p2), t, [1.0, 0.0])

    def test_huge_time_reaches_the_mean_silently(self, er20):
        # lambda t overflows to inf; exp(-inf) = 0 is the right limit
        sd = decompose(er20)
        u = np.random.default_rng(12).standard_normal(er20.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = heat_apply(sd, 1e308, u)
            kernel = heat_kernel(sd, 1e308)
        mean = float(er20.mu @ u) / er20.volume
        assert np.allclose(out, mean, rtol=0, atol=1e-12)
        assert np.allclose(kernel, 1.0 / er20.volume, rtol=0, atol=1e-12)

    def test_constants_preserved(self, k3):
        sd = decompose(k3)
        u = np.full(3, 2.5)
        for t in (0.0, 0.5, 20.0):
            assert np.allclose(heat_apply(sd, t, u), u, atol=1e-12)

    def test_eigenmode_decay(self, p2):
        sd = decompose(p2)
        u = np.array([1.0, -1.0])
        out = heat_apply(sd, 1.0, u)
        assert np.allclose(out, math.exp(-2.0) * u, atol=1e-12)

    def test_time_zero_exact(self, er20):
        sd = decompose(er20)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(er20.n)
        assert np.array_equal(heat_apply(sd, 0.0, u), u)

    def test_semigroup_law(self, all_graphs):
        rng = np.random.default_rng(9)
        for g in all_graphs.values():
            sd = decompose(g)
            u = rng.standard_normal(g.n)
            for t1, t2 in ((0.01, 0.1), (0.3, 0.7), (1.0, 2.0)):
                two = heat_apply(sd, t1, heat_apply(sd, t2, u))
                one = heat_apply(sd, t1 + t2, u)
                assert np.max(np.abs(two - one)) < 1e-9

    def test_matches_kernel_form(self, path10):
        sd = decompose(path10)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(path10.n)
        t = 0.7
        via_kernel = heat_kernel(sd, t) @ (path10.mu * u)
        assert np.max(np.abs(heat_apply(sd, t, u) - via_kernel)) < 1e-11

    def test_contraction_in_mu_norm(self, er20):
        sd = decompose(er20)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(er20.n)
        n0 = mu_inner(er20, u, u)
        evolved = heat_apply(sd, 1.0, u)
        n1 = mu_inner(er20, evolved, evolved)
        assert n1 <= n0 + 1e-12
