import dataclasses
import math

import numpy as np
import pytest

from fraclap.checks import (
    kernel_entries,
    poincare_constant,
    run_suite,
    trudinger_moser_bound,
)
from fraclap.errors import ValidationError
from fraclap.fractional import build_operator
from fraclap.graph import build_graph, integral, mu_inner
from fraclap.spectral import decompose


class TestPoincareConstant:
    def test_p2(self, p2):
        assert poincare_constant(decompose(p2), 0.5) == pytest.approx(
            2.0 ** -0.5, abs=1e-12
        )

    def test_k3(self, k3):
        assert poincare_constant(decompose(k3), 0.5) == pytest.approx(
            3.0 ** -0.5, abs=1e-12
        )

    def test_classical_specialization(self, er20):
        sd = decompose(er20)
        assert poincare_constant(sd, 1.0) == pytest.approx(
            1.0 / sd.lambdas[1], rel=1e-12
        )

    def test_inequality_holds_on_samples(self, er20):
        sd = decompose(er20)
        op = build_operator(sd, 0.5)
        c_p = poincare_constant(sd, 0.5)
        rng = np.random.default_rng(31)
        for _ in range(200):
            u = rng.standard_normal(er20.n)
            u -= integral(er20, u) / er20.volume
            lhs = mu_inner(er20, u, u)
            rhs = c_p * mu_inner(er20, u, op.op_matrix @ u)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_one_vertex_is_a_validation_error(self):
        sd = decompose(build_graph([("a", 1.0)], []))
        with pytest.raises(ValidationError, match="at least 2 vertices"):
            poincare_constant(sd, 0.5)


class TestTrudingerMoser:
    def test_p2_bound_value(self, p2):
        sd = decompose(p2)
        bound = trudinger_moser_bound(p2, sd, 0.5, 1.0)
        assert bound == pytest.approx(2.0 * math.exp(2.0 ** -0.5), rel=1e-12)

    def test_nonpositive_alpha_trivial(self, p2):
        sd = decompose(p2)
        assert trudinger_moser_bound(p2, sd, 0.5, -1.0) == p2.volume
        assert trudinger_moser_bound(p2, sd, 0.5, 0.0) == p2.volume

    def test_one_vertex_is_a_validation_error(self):
        g = build_graph([("a", 1.0)], [])
        with pytest.raises(ValidationError, match="at least 2 vertices"):
            trudinger_moser_bound(g, decompose(g), 0.5, 1.0)

    def test_second_mode_sits_below_bound(self, p2):
        sd = decompose(p2)
        op = build_operator(sd, 0.5)
        phi2 = sd.phis[:, 1]
        energy = mu_inner(p2, phi2, op.op_matrix @ phi2)
        u = phi2 / math.sqrt(energy)
        value = integral(p2, np.exp(u**2))
        assert value == pytest.approx(2.0 * math.exp(1.0 / (2.0 * 2.0 ** 0.5)), rel=1e-10)
        assert value <= trudinger_moser_bound(p2, sd, 0.5, 1.0)

    def test_sampled_bound_never_violated(self, all_graphs):
        rng = np.random.default_rng(32)
        for g in all_graphs.values():
            sd = decompose(g)
            op = build_operator(sd, 0.5)
            mat = g.mu[:, None] * op.op_matrix
            mat = 0.5 * (mat + mat.T)
            bound = trudinger_moser_bound(g, sd, 0.5, 1.0)
            draws = rng.standard_normal((2000, g.n))
            draws -= (draws @ g.mu / g.volume)[:, None]
            energy = np.einsum("ij,jk,ik->i", draws, mat, draws)
            unit = draws / np.sqrt(energy)[:, None]
            vals = np.exp(unit**2) @ g.mu
            assert float(np.max(vals)) <= bound


class TestRunSuite:
    def test_p2_all_pass(self, p2):
        report = run_suite(p2, s_list=[0.25, 0.5, 0.75], seed=7)
        assert report.passed, [e.name for e in report.failures]

    def test_perturbed_measure_all_pass(self):
        g = build_graph(
            [("x1", 1.0), ("x2", 2.0), ("x3", 1.0)],
            [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
        )
        report = run_suite(g, s_list=[0.5], seed=11)
        assert report.passed, [e.name for e in report.failures]

    def test_er20_with_high_orders(self, er20):
        report = run_suite(er20, s_list=[0.5, 1.5, 2.5], seed=7)
        assert report.passed, [(e.name, e.measured) for e in report.failures]

    def test_fourth_order_collapse_held_relative_to_norm(self, random_connected):
        # the even-order-collapse gap here is round-off of about 1.5e-8
        # against an operator norm of about 2e6
        g = random_connected(np.random.default_rng(150), 150)
        report = run_suite(g, s_list=[4.25])
        assert report.passed, [(e.name, e.measured, e.tolerance) for e in report.failures]

    def test_entries_carry_citations(self, p2):
        report = run_suite(p2, s_list=[0.5], seed=7)
        assert all(e.citation for e in report.entries)

    def test_deterministic(self, p2):
        a = run_suite(p2, s_list=[0.5], seed=7).to_dict()
        b = run_suite(p2, s_list=[0.5], seed=7).to_dict()
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_invalid_seed_rejected(self, p2, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            run_suite(p2, s_list=[0.5], seed=seed)

    def test_single_vertex_rejected(self):
        g = build_graph([("x1", 1.0)], [])
        with pytest.raises(ValidationError, match="at least 2 vertices"):
            run_suite(g, s_list=[0.5])

    def test_report_dict_shape(self, p2):
        d = run_suite(p2, s_list=[0.5], seed=7).to_dict()
        assert set(d) == {"passed", "entries"}
        assert all({"name", "passed", "measured", "tolerance", "citation"} <= set(e)
                   for e in d["entries"])


class TestFaultInjection:
    def test_corrupted_kernel_detected_with_witness(self, k3):
        op = build_operator(decompose(k3), 0.5)
        bad = op.kernel.copy()
        bad[0, 1] = -bad[0, 1]  # break symmetry and positivity at one pair
        tampered = dataclasses.replace(op, kernel=bad)
        entries = kernel_entries(tampered)
        failures = [e for e in entries if not e.passed]
        assert failures
        assert any("(0, 1)" in (e.witness or "") or "(1, 0)" in (e.witness or "")
                   for e in failures)

    def test_intact_kernel_passes(self, k3):
        entries = kernel_entries(build_operator(decompose(k3), 0.5))
        assert all(e.passed for e in entries)
