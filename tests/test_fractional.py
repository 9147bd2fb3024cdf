import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import quad
from scipy.special import gamma

from fraclap.errors import InvalidExponent, QuadratureError
from fraclap.fractional import (
    _odd_order_factor,
    build_operator,
    dirichlet_energy,
    frac_apply,
    frac_gradient,
    frac_inner,
    kernel_w_quadrature,
    limit_residuals,
    split_exponent,
)
from fraclap.graph import (
    PairwiseField,
    build_graph,
    divergence,
    gradient_field,
    integral,
    iterated_laplacian,
    laplacian_apply,
    mu_inner,
)
from fraclap.spectral import decompose

SQRT2 = math.sqrt(2.0)


def lam_pow(lam, s):
    return np.where(lam > 0, np.where(lam > 0, lam, 1.0) ** s, 0.0)


def _dense_laplacian(g):
    # the positive Laplacian from the dense weight matrix, independent of the
    # edge-pattern matrices the package builds
    return (np.diag(g.weights.sum(axis=1)) - g.weights) / g.mu[:, None]


def _dense_gradient_coeff(g):
    # sqrt(w_xy / (2 mu_x)) from the dense weight matrix, zero off the edges
    return np.sqrt(g.weights / (2.0 * g.mu[:, None]))


class TestSplitExponent:
    @pytest.mark.parametrize("s,sigma,m", [
        (0.5, 0.5, 0), (0.25, 0.25, 0), (1.5, 0.5, 1), (2.5, 0.5, 2),
        (3.25, 0.25, 3), (1.0, 0.0, 1), (2.0, 0.0, 2),
    ])
    def test_split(self, s, sigma, m):
        got_sigma, got_m = split_exponent(s)
        assert got_m == m
        assert got_sigma == pytest.approx(sigma, abs=1e-15)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid(self, s):
        with pytest.raises(InvalidExponent):
            split_exponent(s)


class TestBuildOperator:
    def test_p2_half_power(self, p2):
        op = build_operator(decompose(p2), 0.5)
        w = 2.0 ** (0.5 - 1.0)
        assert op.kernel[0, 1] == pytest.approx(w, abs=1e-12)
        expected = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.max(np.abs(op.op_matrix - expected)) < 1e-12

    def test_k3_kernel_constant(self, k3):
        op = build_operator(decompose(k3), 0.5)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(op.kernel[off], 3.0 ** -0.5, atol=1e-12)

    def test_p2_even_composition_collapses(self, p2):
        op = build_operator(decompose(p2), 2.5)
        expected = 2.0 ** 1.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.max(np.abs(op.op_matrix - expected)) < 1e-10
        assert op.power_mismatch < 1e-10

    def test_kernel_closed_form_general_s(self, p2):
        sd = decompose(p2)
        for s in (0.1, 0.3, 0.7, 0.9):
            op = build_operator(sd, s)
            assert op.kernel[0, 1] == pytest.approx(2.0 ** (s - 1.0), abs=1e-12)

    def test_integer_s_has_no_kernel(self, p2):
        op = build_operator(decompose(p2), 2.0)
        assert op.kernel is None

    def test_integer_s_matches_repeated_application(self, er20):
        sd = decompose(er20)
        lap = er20.laplacian_matrix()
        for m in (1, 2, 3):
            op = build_operator(sd, float(m))
            assert np.max(np.abs(op.op_matrix - np.linalg.matrix_power(lap, m))) < 1e-8

    def test_constants_in_kernel_of_operator(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (0.25, 0.75, 1.5, 2.5):
                op = build_operator(sd, s)
                assert np.max(np.abs(op.op_matrix @ np.ones(g.n))) < 1e-9

    def test_mu_self_adjointness(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (0.5, 1.5, 2.5):
                op = build_operator(sd, s)
                sym = g.mu[:, None] * op.op_matrix
                assert np.max(np.abs(sym - sym.T)) < 1e-9

    def test_spectral_form_below_one(self, all_graphs):
        # kernel assembly and spectral power agree for s <= 1
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (0.25, 0.5, 0.75, 1.0):
                op = build_operator(sd, s)
                assert np.max(np.abs(op.op_matrix - op.power_matrix)) < 1e-9

    def test_odd_composition_differs_from_power(self, er20):
        op = build_operator(decompose(er20), 1.5)
        assert op.power_mismatch > 1e-3  # a real gap, reported not hidden

    def test_invalid_exponent(self, p2):
        with pytest.raises(InvalidExponent):
            build_operator(decompose(p2), -0.5)

    def test_exponent_beyond_double_range_rejected(self, p2):
        # lambda = 2 on P2: 2^1000 is a double, 2^1100 overflows
        sd = decompose(p2)
        assert np.all(np.isfinite(build_operator(sd, 1000).op_matrix))
        with pytest.raises(InvalidExponent, match="s=1100"):
            build_operator(sd, 1100)

    def test_underflowing_exponent_rejected(self):
        # lambda = 1/2 on this P2: (1/2)^1100 underflows to 0
        g = build_graph([("x1", 4.0), ("x2", 4.0)], [("x1", "x2", 1.0)])
        sd = decompose(g)
        assert sd.lambdas[1] == pytest.approx(0.5)
        with pytest.raises(InvalidExponent, match="s=1100"):
            build_operator(sd, 1100)

    def test_huge_integer_exponent_rejected_before_any_product(self, isolated):
        # 5e6 sparse Laplacian products would never finish; run isolated so a
        # regression fails by timeout
        out = isolated(
            "import json\n"
            "from fraclap.errors import InvalidExponent\n"
            "from fraclap.fractional import build_operator\n"
            "from fraclap.graph import build_graph\n"
            "from fraclap.spectral import decompose\n"
            "g = build_graph([('x1', 1.0), ('x2', 1.0)], [('x1', 'x2', 1.0)])\n"
            "try:\n"
            "    build_operator(decompose(g), 1e7)\n"
            "    print(json.dumps(None))\n"
            "except InvalidExponent as exc:\n"
            "    print(json.dumps(str(exc)))\n"
        )
        assert out is not None and "s=1e+07" in out


def _dense_assembly(sd, s):
    """(kernel, operator, spectral power) with every product a full dense
    n x n product: the reference for the sparse and symmetric assembly."""
    g = sd.graph
    mu, lam, phis = g.mu, sd.lambdas, sd.phis
    sigma, m = split_exponent(s)
    power = (phis * lam_pow(lam, s)[None, :]) @ (phis.T * mu[None, :])
    if sigma == 0.0:
        return None, power, power
    kernel = -np.outer(mu, mu) * ((phis * lam_pow(lam, sigma)[None, :]) @ phis.T)
    kernel = 0.5 * (kernel + kernel.T)
    np.fill_diagonal(kernel, 0.0)
    p = (np.diag(kernel.sum(axis=1)) - kernel) / mu[:, None]
    lap = _dense_laplacian(g)
    if m == 0:
        return kernel, p, power
    if m % 2 == 0:
        half = np.linalg.matrix_power(lap, m // 2)
        return kernel, half @ p @ half, power
    c = _dense_gradient_coeff(g)
    pc = p @ c
    own = p * (c @ c.T) - c * pc
    incoming = ((mu[:, None] * c).T @ p) * c.T - np.diag((mu[:, None] * c * pc).sum(axis=0))
    div_p_grad = -(mu[:, None] * own - incoming) / mu[:, None]
    half = np.linalg.matrix_power(lap, (m - 1) // 2)
    return kernel, -half @ div_p_grad @ half, power


# every order on the sparse n = 150 graph, and the odd and integer orders on a
# hub-heavy and a dense graph, whose degrees are far from the sparse graph's
DENSE_FORMULA_CASES = [
    pytest.param("n150", s, id=str(s)) for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.25)
] + [
    pytest.param(name, s, id=f"{name}-{s}") for name in ("star", "k30") for s in (1.0, 1.5, 3.5)
]


class TestAssemblyAtScale:
    @pytest.fixture(scope="class")
    def sd150(self, random_connected):
        return decompose(random_connected(np.random.default_rng(150), 150))

    @pytest.fixture(scope="class")
    def decompositions(self, sd150, star, complete):
        return {
            "n150": sd150,
            "star": decompose(star(np.random.default_rng(150), 150)),
            "k30": decompose(complete(np.random.default_rng(30), 30)),
        }

    @pytest.mark.parametrize("name, s", DENSE_FORMULA_CASES)
    def test_matches_dense_formulas(self, decompositions, name, s):
        sd = decompositions[name]
        op = build_operator(sd, s)
        kernel, expected, power = _dense_assembly(sd, s)
        assert np.max(np.abs(op.op_matrix - expected)) <= 1e-11 * np.max(np.abs(expected))
        assert np.max(np.abs(op.power_matrix - power)) <= 1e-11 * np.max(np.abs(power))
        if kernel is None:
            assert op.kernel is None
        else:
            assert np.max(np.abs(op.kernel - kernel)) <= 1e-12 * np.max(np.abs(kernel))
            assert np.array_equal(op.kernel, op.kernel.T)
            assert np.all(np.diagonal(op.kernel) == 0.0)

    @pytest.mark.parametrize("s", [2.0, 2.5])
    def test_even_orders_collapse_to_power(self, sd150, s):
        assert build_operator(sd150, s).power_mismatch < 1e-8

    def test_fourth_order_collapses_up_to_round_off(self, sd150):
        # power_mismatch is an absolute row-sum norm; at s = 4.25 the operator
        # norm is about 2e6 and the dense formulas leave the same 1.4e-8 gap
        op = build_operator(sd150, 4.25)
        assert op.power_mismatch < 1e-13 * np.max(np.abs(op.power_matrix).sum(axis=1))

    @pytest.mark.parametrize("s", [1.5, 3.5])
    def test_odd_orders_keep_their_gap(self, sd150, s):
        assert build_operator(sd150, s).power_mismatch > 1e-3

    def test_power_matrix_is_computed_once_and_read_only(self, sd150):
        op = build_operator(sd150, 1.5)
        assert "power_matrix" not in vars(op)
        assert op.power_matrix is op.power_matrix
        assert not op.power_matrix.flags.writeable
        assert not op.op_matrix.flags.writeable

    def test_energy_matrix_is_computed_once_and_read_only(self, sd150):
        op = build_operator(sd150, 0.5)
        assert "energy_matrix" not in vars(op)
        assert op.energy_matrix is op.energy_matrix
        assert not op.energy_matrix.flags.writeable
        form = sd150.graph.mu[:, None] * op.op_matrix
        assert np.array_equal(op.energy_matrix, 0.5 * (form + form.T))
        assert np.array_equal(op.energy_matrix, op.energy_matrix.T)


class TestSharedSigmaFactor:
    """Operators on one decomposition whose exponents share a fractional
    part share one sigma-factor, and the sharing changes no bit."""

    EXPONENTS = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)

    @pytest.fixture(scope="class")
    def g150(self, random_connected):
        return random_connected(np.random.default_rng(1500), 150)

    def test_same_sigma_holds_one_read_only_kernel(self, g150):
        sd = decompose(g150)
        ops = [build_operator(sd, s) for s in (0.5, 1.5, 2.5, 0.5)]
        assert all(op.kernel is ops[0].kernel for op in ops)
        assert not ops[0].kernel.flags.writeable
        assert ops[3].op_matrix is ops[0].op_matrix
        assert build_operator(sd, 0.25).kernel is not ops[0].kernel

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "dropped"])
    def test_bits_match_a_fresh_decomposition(self, g150, order, keep):
        fresh = {}
        for s in self.EXPONENTS:
            op = build_operator(decompose(g150), s)
            fresh[s] = (op.op_matrix, op.kernel)
        exponents = list(self.EXPONENTS)
        if order == "descending":
            exponents.reverse()
        elif order == "shuffled":
            np.random.default_rng(7).shuffle(exponents)
        sd = decompose(g150)
        kept = []
        for s in exponents:
            op = build_operator(sd, s)
            if keep:
                kept.append(op)
            matrix, kernel = fresh[s]
            assert np.array_equal(op.op_matrix, matrix)
            assert (op.kernel is None) == (kernel is None)
            if kernel is not None:
                assert np.array_equal(op.kernel, kernel)

    def test_memo_frees_the_kernel_with_the_last_operator(self, g150):
        sd = decompose(g150)
        ops = [build_operator(sd, s) for s in (0.5, 1.5, 2.5)]
        kernel = weakref.ref(ops[0].kernel)
        del ops[0]
        gc.collect()
        assert kernel() is ops[0].kernel
        del ops
        gc.collect()
        assert kernel() is None
        assert len(sd.sigma_factors) == 0


def _full_product_divergence(g, p):
    """div(P . grad) with P c and c^T (M P) formed as whole products and c
    converted from its dense matrix: the formula of the two halves of the
    divergence, a round-off reference for the energy form."""
    mu = g.mu
    c = scipy.sparse.csr_array(_dense_gradient_coeff(g))
    pc = p @ c
    cpc = c.multiply(pc)
    own = (c @ c.T).multiply(p) - cpc
    b = c.T @ (scipy.sparse.diags_array(mu) @ p)
    incoming = c.T.multiply(b) - scipy.sparse.diags_array(cpc.T @ mu)
    div = incoming / mu[:, None] - own
    return div.toarray()


def _energy_form_factor(g, kernel):
    """-div(P grad) for the sigma factor P of kernel K, as
    M^-1 (S o (c c^T) - Q - Q^T + diag(1^T Q)) with Q = c o (S c),
    S = diag(K 1) - K, whole products and c converted from its dense
    matrix: the reference that pins the bits of the odd-order factor."""
    c = scipy.sparse.csr_array(_dense_gradient_coeff(g))
    r = kernel.sum(axis=1)
    q = c.multiply(r[:, None] * c.toarray() - kernel @ c)
    cc = c @ c.T
    form = np.diag(r * cc.diagonal() + q.sum(axis=0)) - (cc.multiply(kernel) + q + q.T).toarray()
    return form / g.mu[:, None]


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestOddOrderBits:
    """The odd-order factor gives the bits of its energy form built from
    whole products, and integer odd orders the bits of the sparse Laplacian
    power, signed zeros included."""

    @pytest.fixture(scope="class")
    def graphs(self, er20, random_connected, complete, star):
        return {
            "er20": er20,
            "n300": random_connected(np.random.default_rng(300), 300),
            "path60": random_connected(np.random.default_rng(60), 60, extra_per_vertex=0),
            "k30": complete(np.random.default_rng(30), 30),
            "star40": star(np.random.default_rng(40), 40),
        }

    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_divergence_matches_full_products(self, graphs, sigma):
        for g in graphs.values():
            sd = decompose(g)
            op = build_operator(sd, 1.0 + sigma)
            expected = _energy_form_factor(g, op.kernel)
            assert _same_bits(_odd_order_factor(g, op.kernel), expected)
            assert _same_bits(op.op_matrix, expected)
            # the two halves of the divergence give the same operator up to
            # round-off
            rows = (np.diag(op.kernel.sum(axis=1)) - op.kernel) / g.mu[:, None]
            halves = -_full_product_divergence(g, rows)
            assert np.max(np.abs(op.op_matrix - halves)) <= 1e-14 * np.max(np.abs(halves))

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_integer_odd_orders_unchanged(self, graphs, m):
        for g in graphs.values():
            lap = scipy.sparse.csr_array(_dense_laplacian(g))
            power = lap
            for _ in range(m // 2):
                power = lap @ (power @ lap)
            assert _same_bits(build_operator(decompose(g), float(m)).op_matrix,
                              power.toarray())

    @pytest.mark.parametrize("s", [1.5, 3.5])
    def test_zero_beyond_its_hops(self, graphs, s):
        # -div(P grad) couples pairs at most two hops apart, and each of the
        # m // 2 Laplacian factors on either side adds one hop
        hops = split_exponent(s)[1] + 1
        beyond = 0
        for g in graphs.values():
            near = np.eye(g.n) + (g.weights > 0)
            reach = np.linalg.matrix_power(near, hops) > 0
            beyond += np.count_nonzero(~reach)
            assert np.all(build_operator(decompose(g), s).op_matrix[~reach] == 0.0)
        assert beyond > 0


class TestScale:
    """Every exponent regime on one graph at the README's scale, n = 1000."""

    @pytest.fixture(scope="class")
    def sd1000(self, random_connected):
        return decompose(random_connected(np.random.default_rng(1000), 1000))

    @pytest.mark.parametrize("s", [0.5, 2.0, 2.5])
    def test_eigen_relation(self, sd1000, s):
        op = build_operator(sd1000, s)
        scale = sd1000.lambdas[-1] ** s
        for i in (1, sd1000.n // 2, sd1000.n - 1):
            phi = sd1000.phis[:, i]
            r = op.op_matrix @ phi - sd1000.lambdas[i] ** s * phi
            assert np.max(np.abs(r)) <= 1e-10 * scale * np.max(np.abs(phi))

    def test_odd_order_self_adjoint_positive_semidefinite(self, sd1000):
        g = sd1000.graph
        a = build_operator(sd1000, 1.5).op_matrix
        scale = np.max(np.abs(a).sum(axis=1))
        form = g.mu[:, None] * a
        assert np.max(np.abs(form - form.T)) <= 1e-12 * scale * np.max(g.mu)
        assert np.max(np.abs(a.sum(axis=1))) <= 1e-12 * scale
        u = np.random.default_rng(1).standard_normal(g.n)
        assert mu_inner(g, u, a @ u) >= 0.0

    def test_divergence_of_gradient(self, sd1000):
        g = sd1000.graph
        u = np.random.default_rng(2).standard_normal(g.n)
        lu = laplacian_apply(g, u)
        got = divergence(g, gradient_field(g, u))
        assert np.max(np.abs(got + lu)) <= 1e-13 * np.max(np.abs(lu))

    def test_laplacian_apply_matches_matrix(self, sd1000):
        g = sd1000.graph
        u = np.random.default_rng(3).standard_normal(g.n)
        want = g.laplacian_matrix() @ u
        assert np.max(np.abs(laplacian_apply(g, u) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_iterated_laplacian_eigen_relation(self, sd1000):
        g = sd1000.graph
        scale = sd1000.lambdas[-1] ** 2
        for i in (1, g.n // 2, g.n - 1):
            phi = sd1000.phis[:, i]
            r = iterated_laplacian(g, phi, 2) - sd1000.lambdas[i] ** 2 * phi
            assert np.max(np.abs(r)) <= 1e-12 * scale * np.max(np.abs(phi))


class TestFracApply:
    def test_constants_vanish(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (0.3, 1.5, 2.0):
                out = frac_apply(build_operator(sd, s), np.full(g.n, 3.3))
                assert np.max(np.abs(out)) < 1e-9

    def test_p2_eigenmode(self, p2):
        op = build_operator(decompose(p2), 0.5)
        out = frac_apply(op, np.array([1.0, -1.0]))
        assert np.allclose(out, [SQRT2, -SQRT2], atol=1e-12)

    def test_p2_kernel_sum(self, p2):
        op = build_operator(decompose(p2), 0.5)
        out = frac_apply(op, np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0 ** -0.5, -(2.0 ** -0.5)], atol=1e-12)

    def test_kernel_route_matches_spectral_expansion(self, er20):
        sd = decompose(er20)
        op = build_operator(sd, 0.5)
        rng = np.random.default_rng(12)
        u = rng.standard_normal(er20.n)
        out = frac_apply(op, u)
        spectral = sd.synthesize(sd.lambda_power(0.5) * sd.coefficients(u))
        assert np.max(np.abs(out - spectral)) <= 1e-9 * (1.0 + np.max(np.abs(out)))

    def test_eigen_relation(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            powers = lam_pow
            for s in (0.25, 0.5, 0.75):
                op = build_operator(sd, s)
                target = powers(sd.lambdas, s)
                for i in range(g.n):
                    r = frac_apply(op, sd.phis[:, i]) - target[i] * sd.phis[:, i]
                    assert np.max(np.abs(r)) <= 1e-8 * (1.0 + target[i])

    def test_eigen_relation_high_order_power(self, all_graphs):
        # odd compositions are a different operator; the power relation is
        # carried by the spectral realization in both parities
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (1.5, 2.5):
                op = build_operator(sd, s)
                target = lam_pow(sd.lambdas, s)
                resid = op.power_matrix @ sd.phis - sd.phis * target[None, :]
                worst = np.max(np.abs(resid), axis=0) / (1.0 + target)
                assert np.max(worst) <= 1e-8

    def test_maximum_principle(self, all_graphs):
        rng = np.random.default_rng(13)
        for g in all_graphs.values():
            op = build_operator(decompose(g), 0.5)
            draws = rng.standard_normal((1000, g.n))
            images = draws @ op.op_matrix.T
            at_max = images[np.arange(1000), np.argmax(draws, axis=1)]
            assert np.min(at_max) > 0.0


class TestSemigroupInS:
    def test_additive_exponents(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for s1, s2 in ((0.25, 0.5), (0.25, 0.75), (0.3, 0.3)):
                lhs = build_operator(sd, s1).op_matrix @ build_operator(sd, s2).op_matrix
                rhs = build_operator(sd, s1 + s2).op_matrix
                assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestFracGradient:
    def test_constant_gives_zero_field(self, k3):
        op = build_operator(decompose(k3), 0.5)
        f = frac_gradient(op, np.full(3, 1.7))
        assert np.all(f.entries == 0.0)

    def test_p2_value(self, p2):
        op = build_operator(decompose(p2), 0.5)
        f = frac_gradient(op, np.array([1.0, -1.0]))
        expected = math.sqrt(2.0 ** -0.5 / 2.0) * 2.0
        assert f.entries[0, 1] == pytest.approx(expected, abs=1e-10)
        assert f.support == "all-pairs"

    def test_energy_identity(self, p2):
        op = build_operator(decompose(p2), 0.5)
        u = np.array([1.0, -1.0])
        via_gradient = integral(p2, (frac_gradient(op, u).entries ** 2).sum(axis=1) / 1.0)
        # |grad^s u|^2(x) = sum_y entries^2 ... matches frac_inner
        via_inner = integral(p2, frac_inner(op, u, u))
        via_operator = mu_inner(p2, u, frac_apply(op, u))
        assert via_inner == pytest.approx(2.0 * SQRT2, abs=1e-10)
        assert via_operator == pytest.approx(2.0 * SQRT2, abs=1e-10)
        assert via_gradient == pytest.approx(2.0 * SQRT2, abs=1e-10)

    def test_even_high_order_returns_field(self, k3):
        op = build_operator(decompose(k3), 2.5)
        f = frac_gradient(op, np.array([1.0, 0.0, -1.0]))
        assert isinstance(f, PairwiseField)
        assert f.support == "all-pairs"

    def test_odd_high_order_returns_component_stack(self, k3):
        op = build_operator(decompose(k3), 1.5)
        stack = frac_gradient(op, np.array([1.0, 0.0, -1.0]))
        assert isinstance(stack, list) and len(stack) == 3
        assert all(isinstance(f, PairwiseField) for f in stack)

    def test_integer_even_order_is_function(self, k3):
        op = build_operator(decompose(k3), 2.0)
        out = frac_gradient(op, np.array([1.0, 0.0, -1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_integer_odd_order_is_adjacency_field(self, k3):
        op = build_operator(decompose(k3), 1.0)
        out = frac_gradient(op, np.array([1.0, 0.0, -1.0]))
        assert isinstance(out, PairwiseField)
        assert out.support == "adjacency-only"

    def test_stack_inner_product_matches_frac_inner(self, path10):
        op = build_operator(decompose(path10), 1.5)
        rng = np.random.default_rng(14)
        u = rng.standard_normal(path10.n)
        v = rng.standard_normal(path10.n)
        su = frac_gradient(op, u)
        sv = frac_gradient(op, v)
        pointwise = sum((a.entries * b.entries).sum(axis=1) for a, b in zip(su, sv))
        assert np.max(np.abs(pointwise - frac_inner(op, u, v))) < 1e-10


class TestDirichletEnergy:
    def test_constants_zero(self, er20):
        op = build_operator(decompose(er20), 0.5)
        assert abs(dirichlet_energy(op, np.full(er20.n, 2.0))) < 1e-10

    def test_p2_value(self, p2):
        op = build_operator(decompose(p2), 0.5)
        assert dirichlet_energy(op, np.array([1.0, -1.0])) == pytest.approx(
            2.0 * SQRT2, abs=1e-12
        )

    def test_eigenmode_energy(self, p2):
        sd = decompose(p2)
        op = build_operator(sd, 0.5)
        assert dirichlet_energy(op, sd.phis[:, 1]) == pytest.approx(SQRT2, abs=1e-12)

    def test_spectral_sum(self, er20):
        sd = decompose(er20)
        op = build_operator(sd, 0.75)
        rng = np.random.default_rng(15)
        u = rng.standard_normal(er20.n)
        coeffs = sd.coefficients(u)
        expected = float(np.sum(lam_pow(sd.lambdas, 0.75) * coeffs**2))
        assert dirichlet_energy(op, u) == pytest.approx(expected, rel=1e-10)

    def test_strictly_positive_for_nonconstant(self, all_graphs):
        rng = np.random.default_rng(16)
        for g in all_graphs.values():
            op = build_operator(decompose(g), 0.5)
            for _ in range(50):
                u = rng.standard_normal(g.n)
                assert dirichlet_energy(op, u) > 0.0


class TestIntegrationByParts:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    def test_triple_identity(self, all_graphs, s):
        rng = np.random.default_rng(17)
        for g in all_graphs.values():
            op = build_operator(decompose(g), s)
            for _ in range(100):
                u = rng.standard_normal(g.n)
                v = rng.standard_normal(g.n)
                a = mu_inner(g, v, op.op_matrix @ u)
                b = integral(g, frac_inner(op, u, v))
                c = mu_inner(g, u, op.op_matrix @ v)
                scale = 1.0 + max(abs(a), abs(b), abs(c))
                assert abs(a - b) <= 1e-9 * scale
                assert abs(b - c) <= 1e-9 * scale


class TestProductRule:
    def test_minus_sign_holds(self, all_graphs):
        rng = np.random.default_rng(18)
        for g in all_graphs.values():
            op = build_operator(decompose(g), 0.5)
            for _ in range(100):
                u = rng.standard_normal(g.n)
                v = rng.standard_normal(g.n)
                lhs = frac_apply(op, u * v)
                rhs = (
                    u * frac_apply(op, v)
                    + v * frac_apply(op, u)
                    - 2.0 * frac_inner(op, u, v)
                )
                assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_plus_sign_fails_on_witness(self, p2):
        # the plus-signed variant is measurably wrong
        op = build_operator(decompose(p2), 0.5)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        lhs = frac_apply(op, u * v)
        plus = (
            u * frac_apply(op, v)
            + v * frac_apply(op, u)
            + 2.0 * frac_inner(op, u, v)
        )
        assert np.max(np.abs(lhs - plus)) > 1.0


class TestHighOrderIdentities:
    @pytest.mark.parametrize("s", [1.5, 2.5, 3.5])
    def test_distributional_identity(self, path10, s):
        op = build_operator(decompose(path10), s)
        rng = np.random.default_rng(19)
        for _ in range(50):
            phi = rng.standard_normal(path10.n)
            u = rng.standard_normal(path10.n)
            lhs = mu_inner(path10, phi, op.op_matrix @ u)
            rhs = integral(path10, frac_inner(op, phi, u))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_even_collapse(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            for s in (2.5, 4.25):
                op = build_operator(sd, s)
                assert op.power_mismatch < 1e-8

    def test_odd_composition_self_adjoint_psd(self, er20):
        op = build_operator(decompose(er20), 1.5)
        sym = er20.mu[:, None] * op.op_matrix
        assert np.max(np.abs(sym - sym.T)) < 1e-9
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert eigs[0] > -1e-9


class TestQuadratureOracle:
    def test_p2_matches_spectral(self, p2):
        sd = decompose(p2)
        for s in (0.25, 0.5, 0.75):
            got = kernel_w_quadrature(sd, s, tol=1e-8)
            assert got[0, 1] == pytest.approx(2.0 ** (s - 1.0), abs=1e-7)

    def test_path_matches_spectral(self, path10):
        sd = decompose(path10)
        for s in (0.25, 0.5, 0.75):
            got = kernel_w_quadrature(sd, s, tol=1e-8)
            want = build_operator(sd, s).kernel
            assert np.max(np.abs(got - want)) < 1e-6

    def test_scalar_eigenvalue_identity(self):
        # the per-eigenvalue time integral evaluates to -lambda^s
        s = 0.5
        head, _ = quad(lambda t: math.expm1(-2.0 * t) * t ** (-1.0 - s), 0.0, 1.0,
                       limit=200)
        tail, _ = quad(lambda t: math.expm1(-2.0 * t) * t ** (-1.0 - s), 1.0, np.inf,
                       limit=200)
        value = s / gamma(1.0 - s) * (head + tail)
        assert value == pytest.approx(-(2.0 ** 0.5), abs=1e-9)

    def test_k3_symmetry_under_automorphisms(self, k3):
        got = kernel_w_quadrature(decompose(k3), 0.25, tol=1e-8)
        off = got[~np.eye(3, dtype=bool)]
        assert np.max(off) - np.min(off) < 1e-7

    @pytest.fixture(scope="class")
    def sd300(self, random_connected):
        return decompose(random_connected(np.random.default_rng(300), 300))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_spectral_at_scale(self, sd300, s):
        got = kernel_w_quadrature(sd300, s, tol=1e-8)
        want = build_operator(sd300, s).kernel
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.array_equal(got, got.T)
        assert not np.any(np.diag(got))

    def test_single_vertex_has_no_live_mode(self):
        g = build_graph([("x", 1.5)], [])
        got = kernel_w_quadrature(decompose(g), 0.5, tol=1e-8)
        assert got.shape == (1, 1)
        assert got[0, 0] == 0.0

    def test_unreachable_tolerance_raises(self, p2):
        with pytest.raises(QuadratureError, match=r"unreached for pair \(0, 1\)"):
            kernel_w_quadrature(decompose(p2), 0.5, tol=1e-300)

    def test_invalid_s(self, p2):
        with pytest.raises(InvalidExponent):
            kernel_w_quadrature(decompose(p2), 1.5, tol=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_invalid_tol(self, p2, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            kernel_w_quadrature(decompose(p2), 0.5, tol=tol)


class TestLimits:
    def test_p2_closed_forms(self, p2):
        sd = decompose(p2)
        rep = limit_residuals(sd, [0.999])
        assert rep.entries[0].to_laplacian == pytest.approx(
            abs(2.0 ** 0.999 - 2.0), abs=1e-12
        )
        rep = limit_residuals(sd, [0.001])
        assert rep.entries[0].to_meanzero_identity == pytest.approx(
            abs(2.0 ** 0.001 - 1.0), abs=1e-12
        )

    def test_monotone_flags(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            rep = limit_residuals(sd, [1.0 - 10.0 ** -k for k in range(1, 5)])
            assert rep.monotone_toward_one
            rep = limit_residuals(sd, [10.0 ** -k for k in range(1, 5)])
            assert rep.monotone_toward_zero

    def test_midpoint_positive(self, p2):
        rep = limit_residuals(decompose(p2), [0.5])
        assert rep.entries[0].to_laplacian > 0
        assert rep.entries[0].to_meanzero_identity > 0


class TestKernelGrid:
    def test_positivity_and_symmetry(self, all_graphs):
        for g in all_graphs.values():
            sd = decompose(g)
            off = ~np.eye(g.n, dtype=bool)
            for s in [k / 10 for k in range(1, 10)]:
                w = build_operator(sd, s).kernel
                assert np.min(w[off]) > 0.0
                assert np.max(np.abs(w - w.T)) < 1e-14
