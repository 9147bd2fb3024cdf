import math
import warnings

import numpy as np
import pytest

from fraclap import kazdan_warner as kw
from fraclap.errors import (
    CertificateUnsolvable,
    NotAnUpperSolution,
    NotSolved,
    ThresholdIsMinusInfinity,
)
from fraclap.fractional import build_operator, frac_apply
from fraclap.graph import integral
from fraclap.spectral import decompose

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def op_p2(p2):
    return build_operator(decompose(p2), 0.5)


@pytest.fixture(scope="module")
def op_er20(er20):
    return build_operator(decompose(er20), 0.5)


def problem(g, c, kappa, s=0.5):
    return kw.KWProblem(graph=g, s=s, c=c, kappa=np.asarray(kappa, dtype=float))


class TestScreen:
    def test_positive_c_needs_positive_kappa(self, p2):
        v = kw.screen(problem(p2, 1.0, [-1.0, -2.0]))
        assert v.status == kw.UNSOLVABLE
        assert v.reasons

    def test_positive_c_solvable(self, p2):
        assert kw.screen(problem(p2, 1.0, [-1.0, 0.5])).status == kw.SOLVABLE

    def test_zero_c_solvable(self, p2):
        assert kw.screen(problem(p2, 0.0, [1.0, -2.0])).status == kw.SOLVABLE

    def test_zero_c_zero_integral_unsolvable(self, p2):
        assert kw.screen(problem(p2, 0.0, [1.0, -1.0])).status == kw.UNSOLVABLE

    def test_zero_c_no_sign_change_unsolvable(self, p2):
        assert kw.screen(problem(p2, 0.0, [-1.0, -2.0])).status == kw.UNSOLVABLE

    def test_zero_c_kappa_zero(self, p2):
        assert kw.screen(problem(p2, 0.0, [0.0, 0.0])).status == kw.SOLVABLE

    def test_negative_c_integral_necessity(self, p2):
        assert kw.screen(problem(p2, -1.0, [2.0, -1.0])).status == kw.UNSOLVABLE

    def test_negative_c_nonpositive_kappa(self, p2):
        assert kw.screen(problem(p2, -1.0, [-1.0, -2.0])).status == kw.SOLVABLE

    def test_negative_c_mixed_regime(self, p2):
        assert kw.screen(problem(p2, -1.0, [1.0, -3.0])).status == kw.REGIME_DEPENDENT

    def test_high_order_weak_clauses(self, p2):
        assert kw.screen(problem(p2, 1.0, [-1.0, 1.0], s=1.5)).status == kw.SOLVABLE
        assert kw.screen(problem(p2, -1.0, [-1.0, -2.0], s=1.5)).status == kw.SOLVABLE
        # nonpositive with a zero is not covered by the strict high-order clause
        assert kw.screen(problem(p2, -1.0, [0.0, -2.0], s=1.5)).status == kw.UNKNOWN
        assert kw.screen(problem(p2, 0.0, [-1.0, -2.0], s=1.5)).status == kw.UNKNOWN

    def test_every_reason_is_a_citation(self, p2):
        for c, kap in ((1.0, [1.0, 1.0]), (0.0, [1.0, -2.0]), (-1.0, [-1.0, -1.0])):
            v = kw.screen(problem(p2, c, kap))
            assert all(isinstance(r, str) and r for r in v.reasons)


class TestSolveDispatcher:
    def test_constants_balance_positive(self, p2, op_p2):
        rep = kw.solve(problem(p2, 1.0, [1.0, 1.0]), op=op_p2)
        assert np.allclose(rep.solution, 0.0, atol=1e-12)
        assert rep.residual_inf <= 1e-12
        assert rep.method == "variational-positive-c"

    def test_constants_balance_negative(self, p2, op_p2):
        rep = kw.solve(problem(p2, -1.0, [-1.0, -1.0]), op=op_p2)
        assert np.allclose(rep.solution, 0.0, atol=1e-8)

    def test_manufactured_zero_c(self, p2, op_p2):
        kappa = [SQRT2 * math.exp(-1.0), -SQRT2 * math.e]
        rep = kw.solve(problem(p2, 0.0, kappa), op=op_p2)
        assert rep.residual_inf <= 1e-8
        mass = integral(p2, np.asarray(kappa) * np.exp(rep.solution))
        assert abs(mass) <= 1e-8

    def test_certificate_gate(self, p2, op_p2):
        with pytest.raises(CertificateUnsolvable):
            kw.solve(problem(p2, 1.0, [-1.0, -2.0]), op=op_p2)

    def test_override_attempts_and_fails(self, p2, op_p2):
        opts = kw.SolveOptions(override_screen=True, max_iter_newton=60,
                               newton_restarts=3)
        with pytest.raises(NotSolved):
            kw.solve(problem(p2, 1.0, [-1.0, -2.0]), opts, op=op_p2)

    def test_kappa_identically_zero(self, p2, op_p2):
        rep = kw.solve(problem(p2, 0.0, [0.0, 0.0]), op=op_p2)
        assert np.allclose(rep.solution, 0.0)
        assert rep.residual_inf == 0.0

    def test_report_carries_verdict(self, p2, op_p2):
        rep = kw.solve(problem(p2, 1.0, [2.0, 2.0]), op=op_p2)
        assert rep.verdict is not None
        assert rep.verdict.status == kw.SOLVABLE

    def test_method_newton(self, p2, op_p2):
        rep = kw.solve(problem(p2, 1.0, [2.0, -1.0]),
                       kw.SolveOptions(method="newton"), op=op_p2)
        assert rep.method == "newton-continuation"
        assert rep.residual_inf <= 1e-8

    def test_method_monotone(self, p2, op_p2):
        rep = kw.solve(problem(p2, -2.0, [-1.0, -1.0]),
                       kw.SolveOptions(method="monotone"), op=op_p2)
        assert rep.method == "monotone-iteration"
        assert np.allclose(rep.solution, math.log(2.0), atol=1e-8)

    def test_method_variational_rejects_negative_c(self, p2, op_p2):
        with pytest.raises(ValueError):
            kw.solve(problem(p2, -1.0, [-1.0, -1.0]),
                     kw.SolveOptions(method="variational"), op=op_p2)

    def test_high_order_negative_c(self, p2):
        op = build_operator(decompose(p2), 1.5)
        rep = kw.solve(problem(p2, -1.0, [-1.0, -2.0], s=1.5), op=op)
        assert rep.method == "newton-continuation"
        assert rep.residual_inf <= 1e-8


class TestSolvePositiveC:
    def test_trivial_constant(self, p2, op_p2):
        rep = kw.solve_positive_c(problem(p2, 1.0, [1.0, 1.0]), op=op_p2)
        assert np.allclose(rep.solution, 0.0, atol=1e-12)
        assert rep.energy == pytest.approx(0.0, abs=1e-12)

    def test_constant_ansatz(self, p2, op_p2):
        rep = kw.solve_positive_c(problem(p2, 1.0, [2.0, 2.0]), op=op_p2)
        assert np.allclose(rep.solution, -math.log(2.0), atol=1e-9)
        assert rep.residual_inf <= 1e-9

    def test_sign_changing_kappa(self, p2, op_p2):
        p = problem(p2, 1.0, [2.0, -1.0])
        rep = kw.solve_positive_c(p, op=op_p2)
        assert rep.residual_inf <= 1e-8
        mass = integral(p2, p.kappa * np.exp(rep.solution))
        assert mass == pytest.approx(1.0 * p2.volume, abs=1e-8)

    def test_random_instances_satisfy_constraint(self, er20, op_er20):
        rng = np.random.default_rng(21)
        for _ in range(5):
            kappa = rng.standard_normal(er20.n)
            kappa[int(rng.integers(er20.n))] = abs(rng.standard_normal()) + 0.5
            c = float(rng.uniform(0.2, 2.0))
            p = problem(er20, c, kappa)
            rep = kw.solve_positive_c(p, op=op_er20)
            assert rep.residual_inf <= 1e-8
            mass = integral(er20, p.kappa * np.exp(rep.solution))
            assert mass == pytest.approx(c * er20.volume, rel=1e-7)

    def test_huge_constraint_mass_does_not_overflow(self, random_connected):
        # manufactured c > 0 problem at n = 400 whose Newton polish meets a
        # shift mass above 1e154, where squaring it as a Python float raised
        # OverflowError
        rng = np.random.default_rng(0)
        g = random_connected(rng, 400)
        op = build_operator(decompose(g), 0.5)
        c = float(rng.uniform(0.5, 2.0))
        u_star = rng.normal(scale=0.25, size=g.n)
        p = problem(g, c, (op.op_matrix @ u_star + c) * np.exp(-u_star))
        rep = kw.solve(p, op=op)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op).residual_inf <= kw.SolveOptions().tol
        mass = integral(g, p.kappa * np.exp(rep.solution))
        assert mass == pytest.approx(c * g.volume, rel=1e-7)

    def test_overflowed_constraint_mass_is_silent(self, p2):
        # e^800 overflows: one sign of kappa gives an infinite mass, both give
        # inf - inf = NaN, and neither may warn
        v = np.array([800.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kw._constraint_mass(p2, np.array([1.0, 2.0]), v) == np.inf
            assert np.isnan(kw._constraint_mass(p2, np.array([1.0, -2.0]), v))


class TestSolveZeroC:
    def test_manufactured(self, p2, op_p2):
        kappa = [SQRT2 * math.exp(-1.0), -SQRT2 * math.e]
        rep = kw.solve_zero_c(problem(p2, 0.0, kappa), op=op_p2)
        assert rep.residual_inf <= 1e-8
        assert abs(integral(p2, np.asarray(kappa) * np.exp(rep.solution))) <= 1e-8

    def test_p2_instance(self, p2, op_p2):
        p = problem(p2, 0.0, [1.0, -2.0])
        rep = kw.solve_zero_c(p, op=op_p2)
        assert rep.residual_inf <= 1e-8
        assert abs(integral(p2, p.kappa * np.exp(rep.solution))) <= 1e-8

    def test_screen_rejects_zero_integral(self, p2, op_p2):
        with pytest.raises(CertificateUnsolvable):
            kw.solve(problem(p2, 0.0, [1.0, -1.0]), op=op_p2)

    def test_er20_manufactured(self, er20, op_er20):
        rng = np.random.default_rng(22)
        u_star = 0.5 * rng.standard_normal(er20.n)
        kappa = np.exp(-u_star) * (op_er20.op_matrix @ u_star)
        p = problem(er20, 0.0, kappa)
        assert kw.screen(p).status == kw.SOLVABLE
        rep = kw.solve_zero_c(p, op=op_er20)
        assert rep.residual_inf <= 1e-8


class TestResolvent:
    def test_constants(self, p2, op_p2):
        u = kw.resolvent_solve(p2, op_p2, np.ones(2), np.ones(2))
        assert np.allclose(u, 1.0, atol=1e-12)

    def test_eigenmode_division(self, p2, op_p2):
        u = kw.resolvent_solve(p2, op_p2, np.ones(2), np.array([1.0, -1.0]))
        expected = 1.0 / (1.0 + SQRT2)
        assert np.allclose(u, [expected, -expected], atol=1e-12)

    def test_order_preservation(self, er20, op_er20):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = rng.standard_normal(er20.n)
            h = f + np.abs(rng.standard_normal(er20.n))
            phi = np.abs(rng.standard_normal(er20.n)) + 0.05
            uf = kw.resolvent_solve(er20, op_er20, phi, f)
            uh = kw.resolvent_solve(er20, op_er20, phi, h)
            assert np.max(uf - uh) <= 1e-10

    def test_rejects_nonpositive_phi(self, p2, op_p2):
        with pytest.raises(ValueError):
            kw.resolvent_solve(p2, op_p2, np.array([1.0, 0.0]), np.ones(2))


class TestPoisson:
    def test_eigenmode(self, p2, op_p2):
        u = kw.poisson_meanzero_solve(op_p2, np.array([1.0, -1.0]))
        assert np.allclose(u, [2.0 ** -0.5, -(2.0 ** -0.5)], atol=1e-12)

    def test_constant_input(self, k3):
        op = build_operator(decompose(k3), 0.5)
        u = kw.poisson_meanzero_solve(op, np.full(3, 3.0))
        assert np.allclose(u, 0.0, atol=1e-12)

    def test_defining_residual(self, er20, op_er20):
        rng = np.random.default_rng(24)
        for _ in range(20):
            f = rng.standard_normal(er20.n)
            u = kw.poisson_meanzero_solve(op_er20, f)
            fbar = integral(er20, f) / er20.volume
            resid = frac_apply(op_er20, u) - (f - fbar)
            assert np.max(np.abs(resid)) <= 1e-9
            assert abs(integral(er20, u)) <= 1e-10


class TestAuxiliaryPhi0:
    def test_equality_at_constant_solution(self, p2, op_p2):
        phi0 = kw.auxiliary_phi0(problem(p2, -1.0, [-1.0, -1.0]), op_p2)
        assert np.allclose(phi0, 1.0, atol=1e-12)

    def test_equality_scaled(self, p2, op_p2):
        phi0 = kw.auxiliary_phi0(problem(p2, -2.0, [-1.0, -1.0]), op_p2)
        assert np.allclose(phi0, 0.5, atol=1e-12)

    def test_dominates_exponential(self, er20, op_er20):
        rng = np.random.default_rng(25)
        for _ in range(10):
            kappa = -np.abs(rng.standard_normal(er20.n)) - 0.1
            p = problem(er20, -1.0, kappa)
            rep = kw.solve(p, op=op_er20)
            phi0 = kw.auxiliary_phi0(p, op_er20)
            assert np.all(phi0 >= np.exp(-rep.solution) - 1e-8)

    def test_requires_negative_c(self, p2, op_p2):
        with pytest.raises(ValueError):
            kw.auxiliary_phi0(problem(p2, 1.0, [-1.0, -1.0]), op_p2)


class TestUpperSolutions:
    def test_affine_construction(self, p2, op_p2):
        p = problem(p2, -1.0, [-1.0, -2.0])
        up = kw.construct_upper_solution(p, op=op_p2)
        assert up is not None
        slack = kw.check_solution(p, up, op_p2)
        assert slack.slack_min >= 0.0

    def test_construction_scales_with_c(self, er20, op_er20):
        rng = np.random.default_rng(26)
        kappa = -np.abs(rng.standard_normal(er20.n)) - 0.05
        for c in (-0.1, -1.0, -10.0):
            p = problem(er20, c, kappa)
            up = kw.construct_upper_solution(p, op=op_er20)
            assert up is not None
            assert kw.check_solution(p, up, op_er20).slack_min >= 0.0

    def test_exact_solution_is_upper(self, p2, op_p2):
        p = problem(p2, -1.0, [-1.0, -1.0])
        up = kw.construct_upper_solution(p, op=op_p2)
        assert kw.check_solution(p, up, op_p2).slack_min >= 0.0

    def test_continuation_above_threshold(self, p2, op_p2):
        p = problem(p2, -0.01, [1.0, -3.0])
        up = kw.construct_upper_solution(p, op=op_p2)
        assert up is not None
        assert kw.check_solution(p, up, op_p2).slack_min >= -1e-10

    def test_continuation_below_threshold_absent(self, p2, op_p2):
        # threshold for this kappa sits near -0.104; far below nothing exists
        opts = kw.SolveOptions(max_iter_newton=80, newton_restarts=2)
        p = problem(p2, -5.0, [1.0, -3.0])
        assert kw.construct_upper_solution(p, opts, op=op_p2) is None


class TestMonotoneIteration:
    def test_exact_upper_solution_one_sweep(self, p2, op_p2):
        p = problem(p2, -1.0, [-1.0, -1.0])
        rep = kw.solve_negative_c_monotone(p, np.zeros(2), op=op_p2)
        assert rep.iterations == 1
        assert np.allclose(rep.solution, 0.0, atol=1e-12)

    def test_constant_limit(self, p2, op_p2):
        p = problem(p2, -2.0, [-1.0, -1.0])
        rep = kw.solve_negative_c_monotone(p, np.ones(2), op=op_p2)
        assert np.allclose(rep.solution, math.log(2.0), atol=1e-8)
        assert rep.residual_inf <= 1e-9

    def test_rejects_non_upper_solution(self, p2, op_p2):
        p = problem(p2, -2.0, [-1.0, -1.0])
        with pytest.raises(NotAnUpperSolution):
            kw.solve_negative_c_monotone(p, np.array([-5.0, -5.0]), op=op_p2)

    def test_iterate_ordering(self, er20, op_er20):
        rng = np.random.default_rng(27)
        for _ in range(5):
            kappa = -np.abs(rng.standard_normal(er20.n)) - 0.1
            c = float(-rng.uniform(0.5, 2.0))
            p = problem(er20, c, kappa)
            upper = kw.construct_upper_solution(p, op=op_er20)
            trace = []
            rep = kw.solve_negative_c_monotone(p, upper, op=op_er20, trace=trace)
            tol = 1e-12 * (1.0 + float(np.max(np.abs(trace[0]))))
            lower_report = kw.check_solution(p, rep.solution, op_er20)
            assert lower_report.residual_inf <= 1e-8
            for prev, nxt in zip(trace, trace[1:]):
                assert np.all(nxt <= prev + tol)


class TestThreshold:
    def test_p2_bracket(self, p2):
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3, cap=64)
        assert est.c_low < est.c_high < 0.0
        assert est.width <= 1e-3
        # analytic value from the two-vertex reduction
        assert est.c_low <= -0.104136 <= est.c_high
        assert est.attained_solution_at_threshold is not None
        p = problem(p2, est.c_high, [1.0, -3.0])
        assert kw.check_solution(p, est.attained_solution_at_threshold).residual_inf <= 1e-8

    def test_nonpositive_kappa_is_minus_infinity(self, p2):
        with pytest.raises(ThresholdIsMinusInfinity):
            kw.estimate_threshold(p2, 0.5, np.array([-1.0, -2.0]), tol=1e-3)

    def test_nonnegative_integral_rejected(self, p2):
        with pytest.raises(ValueError):
            kw.estimate_threshold(p2, 0.5, np.array([2.0, -1.0]), tol=1e-3)

    def test_probe_consistency(self, p2):
        opts = kw.SolveOptions(max_iter_newton=120, newton_restarts=4)
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3,
                                    cap=64, opts=opts)
        op = build_operator(decompose(p2), 0.5)
        for frac in (0.9, 0.5, 0.1):
            c = est.c_high * frac  # between bracket and zero: solvable
            rep = kw.solve(problem(p2, c, [1.0, -3.0]), opts, op=op)
            assert rep.residual_inf <= 1e-8


class TestCheckSolution:
    def test_exact_balance(self, p2, op_p2):
        rep = kw.check_solution(problem(p2, 1.0, [1.0, 1.0]), np.zeros(2), op_p2)
        assert rep.residual_inf == 0.0
        assert rep.integral_defect == 0.0

    def test_perturbation_scale(self, p2, op_p2):
        rng = np.random.default_rng(28)
        noise = 1e-3 * rng.standard_normal(2)
        rep = kw.check_solution(problem(p2, 1.0, [1.0, 1.0]), noise, op_p2)
        assert 1e-5 < rep.residual_inf < 1e-2

    def test_integrated_identity_on_solves(self, er20, op_er20):
        rng = np.random.default_rng(29)
        for k in range(8):
            u_star = 0.4 * rng.standard_normal(er20.n)
            c = float(rng.uniform(-1.0, 1.5))
            if k % 3 == 0:
                c = 0.0
            kappa = np.exp(-u_star) * (op_er20.op_matrix @ u_star + c)
            p = problem(er20, c, kappa)
            if kw.screen(p).status == kw.UNSOLVABLE:
                continue
            rep = kw.solve(p, op=op_er20)
            defect = kw.check_solution(p, rep.solution, op_er20).integral_defect
            assert defect <= 1e-7 * (1.0 + abs(c) * er20.volume)


class TestScreenSolveConsistency:
    def test_random_suite(self, er20, op_er20):
        rng = np.random.default_rng(30)
        opts = kw.SolveOptions(max_iter_newton=120, newton_restarts=3)
        solvable_failures = []
        for _ in range(40):
            kappa = rng.standard_normal(er20.n)
            c = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.1, 2.0))
            p = problem(er20, c, kappa)
            verdict = kw.screen(p)
            if verdict.status == kw.UNSOLVABLE:
                with pytest.raises(CertificateUnsolvable):
                    kw.solve(p, opts, op=op_er20)
            elif verdict.status == kw.SOLVABLE:
                try:
                    rep = kw.solve(p, opts, op=op_er20)
                    assert rep.residual_inf <= opts.tol
                except NotSolved:
                    solvable_failures.append((c, kappa))
        assert not solvable_failures
