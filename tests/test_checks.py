import dataclasses
import math
import warnings

import numpy as np
import pytest

from fraclap import checks, fractional
from fraclap import kazdan_warner as kw
from fraclap.checks import (
    _calculus_checks,
    _laplacian_draws,
    kernel_entries,
    poincare_constant,
    run_suite,
    trudinger_moser_bound,
)
from fraclap.errors import NumericalError, ValidationError
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

    def test_nonpositive_s(self, p2):
        with pytest.raises(ValueError, match="s must be positive"):
            poincare_constant(decompose(p2), 0)

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

    def test_overflowing_bound_is_inf_without_warning(self, path40):
        sd = decompose(path40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = trudinger_moser_bound(path40, sd, 1.5, 1.0)
        assert bound == math.inf

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


class TestHugeWeight:
    """P2 with w = 0.8e308: 2 d/mu = 1.6e308 is finite, so the graph loads,
    but the Laplacian of a standard-normal draw overflows."""

    @pytest.fixture
    def g(self):
        return build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 0.8e308)])

    def test_calculus_checks_pass_on_scaled_draws(self, g):
        entries = []
        _calculus_checks(g, np.random.default_rng(7), entries)
        assert len(entries) == 4
        assert all(e.passed for e in entries), [(e.name, e.measured) for e in entries]

    def test_suite_ends_in_a_numerical_error(self, g):
        with pytest.raises(NumericalError):
            run_suite(g, s_list=[0.5], seed=7)

    def test_moderate_graph_draws_are_not_scaled(self, er20):
        draws = np.random.default_rng(3).standard_normal((50, er20.n))
        assert np.array_equal(_laplacian_draws(er20, draws.copy()), draws)


class TestTinyWeight:
    """Weights scaled by t << 1 blow up the unit-energy draws, so the sampled
    Moser integrals leave the double range: they count as inf, with no raw
    overflow warning, and every entry keeps its unscaled outcome."""

    @pytest.mark.parametrize("t", [1e-8, 1e-12])
    def test_every_flag_matches_the_unscaled_graph(self, random_connected, t):
        g = random_connected(np.random.default_rng(5), 60)
        rows, cols, w, d = g.edge_pattern
        scaled = dataclasses.replace(g, edge_pattern=(rows, cols, w * t, d * t))
        flags = [(e.name, e.passed) for e in run_suite(g, [0.5, 1.5], seed=7).entries]
        assert [(e.name, e.passed) for e in run_suite(scaled, [0.5, 1.5], seed=7).entries] \
            == flags


class TestSuiteSolveFailures:
    """A Kazdan-Warner solve inside the suite that raises CertificateUnsolvable
    or NotSolved fails its entry, and the suite goes on."""

    SOLVER_ENTRIES = {"manufactured-recovery", "integrated-identity", "comparison-inequality"}

    def test_unsound_certificate_cannot_hide(self, p2, monkeypatch):
        intact = run_suite(p2, s_list=[0.5], seed=7)
        unsolvable = kw.FeasibilityVerdict(kw.UNSOLVABLE, ("forced certificate",))
        monkeypatch.setattr(kw, "screen", lambda p: unsolvable)
        report = run_suite(p2, s_list=[0.5], seed=7)
        entries = {e.name: e for e in report.entries}
        for name in ("manufactured-recovery", "comparison-inequality"):
            assert not entries[name].passed
            assert entries[name].measured == 0.0  # no problem was solved
            assert entries[name].witness.startswith("problem 0 (c=")
            assert "CertificateUnsolvable: forced certificate" in entries[name].witness
        # every draw is made before its solve, so every other entry keeps its bits
        assert [e for e in report.entries if e.name not in self.SOLVER_ENTRIES] == \
            [e for e in intact.entries if e.name not in self.SOLVER_ENTRIES]

    def test_huge_weight_solve_failure_is_an_entry(self):
        g = build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 1e200)])
        entries = {e.name: e for e in run_suite(g, s_list=[0.5], seed=7).entries}
        recovery = entries["manufactured-recovery"]
        assert not recovery.passed
        assert math.isfinite(recovery.measured)
        assert "NotSolved" in recovery.witness


class TestOperatorSharing:
    def test_one_build_per_exponent(self, random_connected, monkeypatch):
        g = random_connected(np.random.default_rng(5), 60)
        calls = []
        real = fractional.build_operator

        def counted(sd, s):
            calls.append(s)
            return real(sd, s)

        for module in (checks, fractional, kw):
            monkeypatch.setattr(module, "build_operator", counted)
        run_suite(g, s_list=[0.5, 1.5], seed=7)
        # 0.5, 1.5, the semigroup sum 1.0 and the eight limit exponents
        assert len(calls) == len(set(calls)) == 11
        assert {0.5, 1.5, 1.0} <= set(calls)


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
