import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraclap import kazdan_warner as kw
from fraclap.errors import (
    CertificateUnsolvable,
    InfeasibleStart,
    InvalidExponent,
    NotAnUpperSolution,
    NotSolved,
    SingularSystem,
    ThresholdIsMinusInfinity,
)
from fraclap.fractional import build_operator, frac_apply
from fraclap.graph import build_graph, integral
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


def assert_probes_below_earlier_successes(est):
    # a solution at c' > c has negative slack at c, so no solution on file
    # can serve a later probe as an upper solution
    cs = [c for c, _ in est.probes]
    assert len(set(cs)) == len(cs), "a c was probed twice"
    solved = []
    for c, ok in est.probes:
        assert all(c < c_solved for c_solved in solved)
        if ok:
            solved.append(c)


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


def positive_c_benchmark_problem(make_graph, seed, n, draw):
    """A c > 0 input of the benchmark drawn from its seed's stream at n
    vertices: a cli-n1000 kappa file (standard normal, c = 1; the stream
    first draws the n = 60 threshold graph and the apply input), or the
    first manufactured kw-solve-n400 positive_c problem."""
    rng = np.random.default_rng(seed)
    g = make_graph(rng, n)
    op = build_operator(decompose(g), 0.5)
    if draw == "manufactured":
        c = float(rng.uniform(0.5, 2.0))
        u_star = rng.normal(scale=0.25, size=n)
        return problem(g, c, (op.op_matrix @ u_star + c) * np.exp(-u_star)), op
    make_graph(rng, 60)
    draws = rng.normal(size=(2 + int(draw[-1]), n))
    return problem(g, 1.0, draws[-1]), op


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
        opts = kw.SolveOptions(override_screen=True)
        with pytest.raises(NotSolved):
            kw.solve(problem(p2, 1.0, [-1.0, -2.0]), opts, op=op_p2)

    @pytest.mark.parametrize("c, kappa, first, trace", [
        # the paper's method stalls, then Newton from zero stalls
        (1.0, [2.0, -1.0], "variational-positive-c", [
            "variational-positive-c stopped at residual", "newton-continuation",
        ]),
        (0.0, [2.0, -3.0], "variational-zero-c", [
            "variational-zero-c stopped at residual", "newton-continuation",
        ]),
        # kappa > 0 somewhere: no affine upper solution, so Newton runs first
        (-0.05, [1.0, -3.0], "newton-continuation", ["newton-continuation"]),
    ])
    def test_stalled_route_names_route_and_residual(self, p2, op_p2, c, kappa, first,
                                                    trace):
        # no double reaches a residual of 1e-300 here, so every route stalls
        match = "^newton-continuation stopped at residual .* > tol"
        with pytest.raises(NotSolved, match=match) as exc:
            kw.solve(problem(p2, c, kappa), kw.SolveOptions(tol=1e-300), op=op_p2)
        assert exc.value.trace[0].startswith(first)
        assert len(exc.value.trace) == len(trace)
        assert all(got.startswith(want) for got, want in zip(exc.value.trace, trace))

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

    @pytest.mark.parametrize("method", ["auto", "newton"])
    def test_continuation_point_polished_at_c(self, random_connected, method):
        # Newton from zero and the restarts fail here; the continuation point
        # solves the equation at c (1 + 1e-6), a residual of 8e-8 at c
        rng = np.random.default_rng(8)
        g = random_connected(rng, 40)
        rng.normal(size=g.n)
        kappa = 2.0 * rng.normal(size=g.n) - 0.5
        p = problem(g, -0.08, kappa, s=2.5)
        rep = kw.solve(p, kw.SolveOptions(method=method),
                       op=build_operator(decompose(g), 2.5))
        assert rep.residual_inf <= 1e-8

    @pytest.mark.parametrize("method", ["auto", "monotone"])
    @pytest.mark.parametrize(
        "s, c",
        [(0.5, -0.01), (1.0, -0.01), (0.5, -1000.0), (1.0, -1000.0)],
        ids=["0.5", "1.0", "0.5-c-1000", "1.0-c-1000"],
    )
    def test_overflowing_affine_candidate_is_skipped(self, p2, method, s, c):
        # at c = -1000 the affine candidate's exp overflows, so its slack is
        # +inf and it would give the monotone sweep an infinite shift; at
        # c = -0.01 the candidate is finite and the sweep starts from it.
        # Without it "auto" goes to Newton, "monotone" to the continuation point
        p = problem(p2, c, [-0.1, -4.0], s=s)
        op = build_operator(decompose(p2), s)
        assert (kw._affine_upper_solution(p, op) is None) == (c == -1000.0)
        rep = kw.solve(p, kw.SolveOptions(method=method), op=op)
        newton = c == -1000.0 and method == "auto"
        assert rep.method == ("newton-continuation" if newton else "monotone-iteration")
        assert rep.residual_inf <= 1e-8

    def test_continuation_point_goes_to_newton(self, random_connected):
        # monotone iteration from the continuation point took 817 sweeps here
        rng = np.random.default_rng(11)
        g = random_connected(rng, 60)
        u_star = rng.normal(scale=0.5, size=g.n)
        op = build_operator(decompose(g), 0.5)
        c = -0.5
        kappa = (op.op_matrix @ u_star + c) * np.exp(-u_star)
        rep = kw.solve(problem(g, c, kappa), op=op)
        assert rep.method == "newton-continuation"
        assert rep.iterations <= 10
        assert rep.residual_inf <= 1e-8

    def test_variational_stall_is_rescued_by_newton(self, random_connected):
        rng = np.random.default_rng(316)
        n = int(rng.integers(10, 60))
        g = random_connected(rng, n)
        s = float(rng.choice([0.5, 1, 1.5, 2, 2.5]))
        kappa = rng.normal(size=n) * rng.choice([1, 3, 10]) - rng.uniform(0, 1)
        c = float(rng.choice([0, 1]) * 10 ** rng.uniform(-3, 1))
        assert (n, s) == (10, 2.0) and c == pytest.approx(4.7412, abs=1e-4)
        p = problem(g, c, kappa, s=s)
        assert kw.screen(p).status == kw.SOLVABLE
        op = build_operator(decompose(g), s)
        rep = kw.solve(p, op=op)
        assert rep.method == "newton-continuation"
        assert rep.residual_inf <= 1e-8
        match = "^variational-positive-c stopped at residual"
        with pytest.raises(NotSolved, match=match) as exc:
            kw.solve(p, kw.SolveOptions(method="variational"), op=op)
        assert exc.value.trace == ["variational-positive-c"]

    def test_infeasible_start_ends_the_route(self, p2):
        # s > 1 leaves c = 0 unscreened; kappa > 0 empties the constraint set
        p = problem(p2, 0.0, [1.0, 2.0], s=1.5)
        assert kw.screen(p).status == kw.UNKNOWN
        with pytest.raises(InfeasibleStart):
            kw.solve(p, op=build_operator(decompose(p2), 1.5))


class TestSolvePositiveC:
    @pytest.mark.parametrize("c, tol", [(1e-5, 1e-12), (1e-7, 1e-10)])
    def test_small_c_reaches_tight_tol(self, p2, op_p2, c, tol):
        # the reduced polish stalls just above tol; the equation polish finishes
        p = problem(p2, c, [1.0, -3.0])
        assert kw.screen(p).status == kw.SOLVABLE
        rep = kw.solve(p, kw.SolveOptions(tol=tol), op=op_p2)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op_p2).residual_inf <= tol

    def test_small_c_at_scale(self, random_connected):
        # the reduced polish stops at residual 1.48 on this n=200 problem
        rng = np.random.default_rng(5)
        g = random_connected(rng, 200)
        p = problem(g, 1e-7, rng.normal(size=g.n) - 0.5)
        assert kw.screen(p).status == kw.SOLVABLE
        op = build_operator(decompose(g), 0.5)
        rep = kw.solve(p, op=op)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8

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

    @pytest.mark.parametrize("seed, n, draw", [
        (13, 1000, "kappa_pos0"), (16, 940, "kappa_pos1"), (12, 400, "manufactured"),
    ])
    def test_collapsed_minimizer_is_reached(self, random_connected, seed, n, draw):
        # benchmark inputs rebuilt at the smallest n where a descent on the
        # unscaled mass stagnated; the minimizer lies below -700 away from a
        # few spike vertices
        p, op = positive_c_benchmark_problem(random_connected, seed, n, draw)
        rep = kw.solve(p, op=op)
        assert rep.method == "variational-positive-c"
        assert rep.residual_inf <= kw.SolveOptions().tol
        mass = integral(p.graph, p.kappa * np.exp(rep.solution))
        assert mass == pytest.approx(p.c * p.graph.volume, rel=1e-7)

    def test_subnormal_kappa_spike_is_not_solved_silently(self, p2, op_p2):
        # (1 + |rest|) / (kappa mu) overflowed for kappa = 1e-310; the spike
        # is now taken in logs, and the descent ends at an infinite residual
        p = problem(p2, 1.0, [1e-310, -1.0])
        assert math.isfinite(kw._positive_start(p)[0])
        match = "^variational-positive-c stopped at residual inf"
        with pytest.raises(NotSolved, match=match):
            kw.solve(p, kw.SolveOptions(method="variational"), op=op_p2)

    @pytest.mark.parametrize("c", [1e308, 1.7e308])
    def test_overflowing_constraint_mass_is_not_solved(self, p2, op_p2, c):
        # c |V| overflows to inf, and so does the shift of the candidate; the
        # route must fail as a search, so that Newton gets its turn
        p = problem(p2, c, [1.0, -3.0])
        with pytest.raises(NotSolved, match="^positive-c candidate is not finite"):
            kw.solve_positive_c(p, op=op_p2)
        with pytest.raises(NotSolved, match="^newton-continuation: all starts failed"):
            kw.solve(p, op=op_p2)

    def test_underflowed_base_level_keeps_bookkeeping_finite(self, random_connected):
        # c = 8 puts the base level near -798, below log(DBL_TRUE_MIN) = -745,
        # so e^u is 0 on 195 of the 200 vertices
        rng = np.random.default_rng(200)
        g = random_connected(rng, 200)
        p = problem(g, 8.0, rng.normal(size=g.n))
        op = build_operator(decompose(g), 0.5)
        rep = kw.solve(p, op=op)
        assert np.min(rep.solution) < -745.0
        defect = kw.check_solution(p, rep.solution, op).integral_defect
        assert math.isfinite(defect) and defect <= 1e-7 * p.c * g.volume
        assert math.isfinite(rep.energy)


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

    def test_kappa_identically_zero(self, p2, op_p2):
        # every constant solves and every mean-zero u meets the constraints
        p = problem(p2, 0.0, [0.0, 0.0])
        rep = kw.solve_zero_c(p, op=op_p2)
        assert np.array_equal(rep.solution, np.zeros(2))
        assert rep.residual_inf == 0.0
        assert kw.check_solution(p, rep.solution, op_p2).residual_inf == 0.0

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
        assert rep.iterations <= 60

    @pytest.mark.parametrize("n, seed", [(20, 18), (40, 6), (40, 17), (40, 28)])
    def test_overflowing_descent_step_is_solved(self, random_connected, n, seed):
        # a descent step here overflowed e^u at vertices of both kappa signs,
        # and the constraint restoration met a NaN mass
        rng = np.random.default_rng(seed)
        g = random_connected(rng, n)
        p = problem(g, 0.0, rng.normal(size=g.n) - 0.3, s=2.5)
        assert kw.screen(p).status == kw.SOLVABLE
        rep = kw.solve(p, op=build_operator(decompose(g), 2.5))
        assert rep.method == "variational-zero-c"
        assert rep.residual_inf <= 1e-8

    def test_restored_constraint_is_finite_and_silent(self, p2):
        # e^800 overflows, yet the mass relative to e^{max} stays finite:
        # restoration returns the one mean-zero w with e^w0 = 2 e^w1
        kappa = np.array([1.0, -2.0])
        bump = kw._meanzero_bump(p2, kappa)
        for u in ([800.0, 800.0], [800.0, -800.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = kw._restore_constraint(p2, kappa, np.array(u), bump)
            assert np.all(np.isfinite(w))
            assert integral(p2, w) == pytest.approx(0.0, abs=1e-9)
            assert w[0] - w[1] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_newton_rejects_drift_to_minus_infinity(self, random_connected):
        # Newton from zero drifts to the constant -27, where kappa e^u is
        # 4.7e-12 and the residual alone cannot tell it from a solution
        rng = np.random.default_rng(3)
        g = random_connected(rng, 40)
        p = problem(g, 0.0, rng.normal(size=g.n) - 0.3)
        op = build_operator(decompose(g), 0.5)
        newton = kw.solve(p, kw.SolveOptions(method="newton"), op=op)
        assert np.allclose(newton.solution, kw.solve(p, op=op).solution, atol=1e-8)

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
    def test_drift_without_solution_is_not_solved(self, p2, s):
        # integrating the equation forces u1 = u2 and then kappa e^u = 0, so
        # no solution exists; Newton from zero drifts toward a constant
        # -infinity with a residual within tol
        op = build_operator(decompose(p2), s)
        p = problem(p2, 0.0, [1.0, -1.0], s=s)
        with pytest.raises(NotSolved, match="all starts failed"):
            kw.solve(p, op=op)
        u, its, ok = kw._damped_newton(op, p.kappa, 0.0, np.zeros(2), kw.SolveOptions())
        assert ok and np.all(u < -17.0)
        with pytest.raises(NotSolved, match="^newton-continuation drifted: residual .* is not "
                                            "small against the scale .* of the equation's"):
            kw._verified(p, op, u, "newton-continuation", its, kw.SolveOptions())

    def test_positive_integral_is_not_solved(self, random_connected):
        # for s > 1 the screen leaves c = 0 with integral(kappa) > 0 unknown;
        # the feasible start then lies along +bump
        rng = np.random.default_rng(120)
        g = random_connected(rng, 120)
        kappa = rng.normal(size=g.n)
        p = problem(g, 0.0, kappa + (1.9 - integral(g, kappa)) / g.volume, s=1.5)
        assert kw.screen(p).status == kw.UNKNOWN
        with pytest.raises(NotSolved):
            kw.solve(p, op=build_operator(decompose(g), 1.5))


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

    def test_cached_energy_matrix_matches_inline_assembly(self, er20, op_er20):
        # factoring the cached energy matrix plus diag(mu phi) gives, bit for
        # bit, the factor of diag(mu) (A + diag(phi)) symmetrized per call
        def inline(phi, f):
            sym = er20.mu[:, None] * op_er20.op_matrix + np.diag(er20.mu * phi)
            sym = 0.5 * (sym + sym.T)
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(sym), er20.mu * f)

        rng = np.random.default_rng(29)
        phi = np.abs(rng.standard_normal(er20.n)) + 0.05
        f = rng.standard_normal(er20.n)
        assert np.array_equal(kw.resolvent_solve(er20, op_er20, phi, f), inline(phi, f))
        kappa = -np.abs(rng.standard_normal(er20.n))
        p = problem(er20, -0.7, kappa)
        expected = inline(np.full(er20.n, 0.7), -kappa)
        assert np.array_equal(kw.auxiliary_phi0(p, op_er20), expected)


def counting(monkeypatch, module, name):
    """Wrap module.name so each call is counted; returns the counter list."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def fail_cholesky(*args, **kwargs):
    raise scipy.linalg.LinAlgError("forced failure")


class TestNewtonLinearAlgebra:
    """Damped Newton at c < 0 factors mu times the Jacobian by the shifted
    Cholesky helper; LU is the fallback there and the step for c >= 0."""

    def test_negative_c_steps_use_cholesky_only(self, random_connected, monkeypatch):
        rng = np.random.default_rng(60)
        g = random_connected(rng, 60)
        op = build_operator(decompose(g), 1.5)
        p = problem(g, -1.0, -np.abs(rng.normal(size=g.n)) - 0.1, s=1.5)
        lu = counting(monkeypatch, np.linalg, "solve")
        chol = counting(monkeypatch, scipy.linalg, "cho_factor")
        rep = kw.solve(p, kw.SolveOptions(method="newton"), op=op)
        assert rep.method == "newton-continuation"
        assert len(lu) == 0 and len(chol) > 0
        assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8

    def test_indefinite_jacobian_falls_back_to_lu(self, p2, op_p2, monkeypatch):
        # at u0 = (3, 0) the mu-Jacobian has diagonal entry 2^(-1/2) - e^3 < 0
        kappa, c, u0 = np.array([1.0, -3.0]), -0.05, np.array([3.0, 0.0])
        start = np.max(np.abs(kw._residual(op_p2, kappa, c, u0)))
        lu = counting(monkeypatch, np.linalg, "solve")
        u, its, ok = kw._damped_newton(op_p2, kappa, c, u0, kw.SolveOptions())
        assert len(lu) > 0
        assert ok and its > 0
        assert np.max(np.abs(kw._residual(op_p2, kappa, c, u))) < 1e-8 * start

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_cholesky_step_equals_lu_step(self, random_connected, s):
        rng = np.random.default_rng(15)
        g = random_connected(rng, 200)
        op = build_operator(decompose(g), s)
        kappa = -np.abs(rng.normal(size=g.n)) - 0.1
        u = rng.normal(size=g.n)
        r = kw._residual(op, kappa, -1.0, u)
        ke = kappa * np.exp(u)
        chol = kw._shifted_cholesky(g, op, -ke)(-g.mu * r)
        lu = kw._lu_step(op.op_matrix - np.diag(ke), r)
        assert np.max(np.abs(chol - lu)) <= 1e-12 * np.max(np.abs(lu))

    def test_failed_factor_falls_back_to_lu_with_the_same_run(self, random_connected,
                                                               monkeypatch):
        rng = np.random.default_rng(61)
        g = random_connected(rng, 60)
        op = build_operator(decompose(g), 0.5)
        kappa = -np.abs(rng.normal(size=g.n)) - 0.1
        u0 = rng.normal(size=g.n)
        opts = kw.SolveOptions()
        u_chol, its_chol, ok_chol = kw._damped_newton(op, kappa, -1.0, u0, opts)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        lu = counting(monkeypatch, np.linalg, "solve")
        u_lu, its_lu, ok_lu = kw._damped_newton(op, kappa, -1.0, u0, opts)
        assert ok_chol and ok_lu and its_chol == its_lu == len(lu)
        assert np.max(np.abs(u_chol - u_lu)) <= 1e-12 * (1.0 + np.max(np.abs(u_lu)))

    def test_overflowed_shift_falls_back_to_lu(self, monkeypatch):
        # the residual is finite (1e304), but mu kappa e^u overflows the shift
        g = build_graph([("x1", 1e6), ("x2", 1.0)], [("x1", "x2", 1.0)])
        op = build_operator(decompose(g), 0.5)
        lu = counting(monkeypatch, np.linalg, "solve")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kw._damped_newton(op, np.array([-1.0, -1.0]), -1.0, np.array([700.0, 0.0]),
                              kw.SolveOptions())
        assert len(lu) > 0

    def test_failed_factor_stays_typed(self, p2, op_p2, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        with pytest.raises(SingularSystem, match="^resolvent system not positive definite"):
            kw.resolvent_solve(p2, op_p2, np.ones(2), np.ones(2))
        p = problem(p2, -2.0, [-1.0, -1.0])
        with pytest.raises(SingularSystem, match="^monotone system not positive definite"):
            kw.solve_negative_c_monotone(p, np.ones(2), op=op_p2)

    def test_singular_step_ends_the_run(self, p2, op_p2, monkeypatch):
        # kappa = 0 leaves the Jacobian op_matrix, singular on constants, so
        # every run ends at its first step and every start fails
        def no_lstsq(*args, **kwargs):
            pytest.fail("a Newton step is a Cholesky or an LU solve")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        opts = kw.SolveOptions(override_screen=True, method="newton")
        with pytest.raises(NotSolved, match="all starts failed"):
            kw.solve(problem(p2, 1.0, [0.0, 0.0]), opts, op=op_p2)

    @pytest.mark.parametrize("u0", [[800.0, 0.0], [math.nan, 0.0]], ids=["overflow", "nan"])
    def test_nonfinite_start_is_not_converged(self, p2, op_p2, capfd, u0):
        # the start's residual is not finite, so no factorization may see it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, its, ok = kw._damped_newton(op_p2, np.array([1.0, -3.0]), -0.05,
                                           np.array(u0), kw.SolveOptions())
        assert (its, ok) == (0, False)
        assert np.array_equal(u, u0, equal_nan=True)
        assert capfd.readouterr().err == ""


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

    def test_affine_construction_feeds_monotone(self, random_connected):
        # an affine candidate scaled by kbar / c reaches 154 here and never
        # converges within 10,000 sweeps; the 2c / kbar scaling converges,
        # and the tight shift refreshed as the iterate falls does so in 15
        # sweeps where a shift floored at 1 and refreshed every 200 took 151
        rng = np.random.default_rng(123)
        g = random_connected(rng, 30)
        p = problem(g, -0.02, -np.abs(rng.normal(size=g.n)))
        op = build_operator(decompose(g), 0.5)
        rep = kw.solve_negative_c_monotone(p, kw.construct_upper_solution(p, op=op), op=op)
        assert rep.residual_inf <= 1e-8
        assert rep.iterations <= 30

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
        opts = kw.SolveOptions()
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

    def test_rejects_nonfinite_slack(self, p2, op_p2):
        # kappa e^u is 0 * inf at vertex 0: the slack is NaN there
        p = problem(p2, -1.0, [0.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAnUpperSolution):
                kw.solve_negative_c_monotone(p, np.array([800.0, 0.0]), op=op_p2)

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

    def test_round_off_floor_stops_the_sweeps(self, p2, op_p2):
        # tol 1e-15 is reached in 19 sweeps; no sweep reaches 1e-16
        p = problem(p2, -2.0, [-1.0, -1.5])
        upper = kw.construct_upper_solution(p, op=op_p2)
        trace = []
        with pytest.raises(NotSolved, match="^monotone-iteration stopped at residual"):
            kw.solve_negative_c_monotone(p, upper, kw.SolveOptions(tol=1e-16), op=op_p2,
                                         trace=trace)
        assert len(trace) < 100

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_tight_shift_preserves_order(self, random_connected, s):
        # sign-changing kappa with entries |kappa| < 1, where a shift floored
        # at 1 hid how tight max(0, -kappa) e^level is: every iterate must
        # stay an upper solution, below the one before and above the lower
        # solution
        rng = np.random.default_rng(7)
        g = random_connected(rng, 60)
        u_star = rng.normal(scale=0.5, size=g.n)
        op = build_operator(decompose(g), s)
        c = -0.5
        kappa = (op.op_matrix @ u_star + c) * np.exp(-u_star)
        assert np.max(kappa) > 0 and np.any((kappa < 0) & (kappa > -1.0))
        p = problem(g, c, kappa, s=s)
        upper = kw.construct_upper_solution(p, op=op)  # the continuation point
        trace = []
        rep = kw.solve_negative_c_monotone(p, upper, op=op, trace=trace)
        assert rep.residual_inf <= 1e-8
        lower = kw._lower_level(kappa, c, upper)
        tol = 1e-12 * (1.0 + float(np.max(np.abs(upper))) + abs(lower))
        slack_scale = 1.0 + float(np.max(np.abs(op.op_matrix @ upper))) + abs(c)
        for prev, nxt in zip(trace, trace[1:]):
            assert np.all(nxt <= prev + tol)
        for u in trace:
            assert kw.check_solution(p, u, op).slack_min >= -1e-10 * slack_scale
            assert float(np.min(u)) >= lower


class TestThreshold:
    def test_p2_bracket(self, p2, p2_threshold):
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3, cap=64)
        assert est.c_low < est.c_high < 0.0
        assert est.width <= 1e-3
        # analytic value from the two-vertex reduction
        assert est.c_low <= p2_threshold <= est.c_high
        assert est.attained_solution_at_threshold is not None
        p = problem(p2, est.c_high, [1.0, -3.0])
        assert kw.check_solution(p, est.attained_solution_at_threshold).residual_inf <= 1e-8
        assert_probes_below_earlier_successes(est)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_bracket_at_scale(self, random_connected, s):
        rng = np.random.default_rng(60)
        g = random_connected(rng, 60)
        kappa = rng.normal(size=g.n) - 0.5
        op = build_operator(decompose(g), s)
        est = kw.estimate_threshold(g, s, kappa, tol=1e-4, op=op)
        assert not est.cap_reached
        assert est.width <= 1e-4
        probes = dict(est.probes)
        assert probes[est.c_low] is False
        assert probes[est.c_high] is True
        p = problem(g, est.c_high, kappa, s=s)
        assert kw.check_solution(p, est.attained_solution_at_threshold, op).residual_inf <= 1e-8
        assert_probes_below_earlier_successes(est)

    @pytest.mark.parametrize("k, reach", [
        (1, -0.113113), (2, -0.107471), (3, -0.077033), (4, -0.125276),
    ])
    def test_bracket_ends_on_the_stable_branch(self, random_connected, k, reach):
        # reach: a stable solution (mu J positive definite, residual at most
        # 4.2e-12) exists there, found by a separate continuation. For
        # k = 1, 3, 4 an unstable branch folds more than 0.008 above it, so a
        # walk that accepts Newton roots of any stability stops early
        rng = np.random.default_rng(k)
        g = random_connected(rng, 300)
        kappa = rng.normal(size=g.n) - 0.5
        op = build_operator(decompose(g), 0.5)
        est = kw.estimate_threshold(g, 0.5, kappa, tol=1e-4, op=op)
        assert est.c_high <= reach + 1e-4
        u = est.attained_solution_at_threshold
        assert kw._shifted_cholesky(g, op, -kappa * np.exp(u)) is not None
        p = problem(g, est.c_high, kappa)
        assert kw.check_solution(p, u, op).residual_inf <= 1e-8

    @pytest.mark.parametrize("c", [-0.105, -0.11])
    def test_solve_below_an_unstable_fold(self, random_connected, c):
        # an unstable branch folds near -0.1044; the continuation point must
        # come from the stable branch, which reaches -0.1131
        rng = np.random.default_rng(1)
        g = random_connected(rng, 300)
        kappa = rng.normal(size=g.n) - 0.5
        rep = kw.solve(problem(g, c, kappa))
        assert rep.residual_inf <= 1e-8

    def test_confirmation_repeats_no_run(self, p2, monkeypatch):
        # a failed run is never retried: the bisection moves to a new c, and
        # no separate confirmation reruns a failure from other starts
        calls = []
        real = kw._damped_newton

        def recording(op, kappa, c, u0, opts):
            calls.append((c, np.array(u0, dtype=float)))
            return real(op, kappa, c, u0, opts)

        monkeypatch.setattr(kw, "_damped_newton", recording)
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3)
        for (c0, u0), (c1, u1) in zip(calls, calls[1:]):
            assert not (c0 == c1 and np.array_equal(u0, u1))
        assert (est.c_low, est.c_high) == (-0.1044921875, -0.103515625)
        assert est.probes == (
            (-0.0625, True), (-0.125, False), (-0.09375, True), (-0.109375, False),
            (-0.1015625, True), (-0.10546875, False), (-0.103515625, True),
            (-0.1044921875, False))
        assert est.attained_solution_at_threshold.tolist() == [
            -1.3301518150722764, -1.8505155670582292]

    def test_bisection_never_probes_below_a_failure(self, op_p2, monkeypatch):
        # scripted outcomes: two doublings solve, then failures and successes
        # alternate; after the first failure every probe lies strictly
        # between the last solution and the last failure
        outcomes = iter([True, True, False, True, False])

        def scripted(op, kappa, c, u0, opts):
            return (u0, np.zeros(2)) if next(outcomes, True) else None

        monkeypatch.setattr(kw, "_stable_point", scripted)
        probes = []
        start = (-0.01, np.zeros(2), np.zeros(2))
        c, _, failed = kw._stable_walk(op_p2, np.array([1.0, -3.0]), start, -math.inf,
                                       kw.SolveOptions(), 1e-3, probes, math.inf)
        assert [p for p, _ in probes[:5]] == [-0.02, -0.04, -0.08, -0.06, -0.07]
        for i, (c_probe, _) in enumerate(probes):
            assert all(c_probe > c_failed for c_failed, ok in probes[:i] if not ok)
        assert (failed, dict(probes)[failed], dict(probes)[c]) == (-0.07, False, True)
        assert 0.0 < c - failed <= 1e-3

    def test_cap_reached_returns_verified_solution(self, p2):
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3, cap=2)
        assert est.cap_reached
        assert len(est.probes) == 2
        p = problem(p2, est.c_high, [1.0, -3.0])
        assert kw.check_solution(p, est.attained_solution_at_threshold).residual_inf <= 1e-8
        assert_probes_below_earlier_successes(est)

    def test_tol_below_double_spacing_terminates(self, isolated, p2):
        # at tol 1e-17 the walks end on adjacent doubles that no walk can
        # split; a fresh interpreter turns a hang into a timeout failure
        out = isolated(
            "import json, numpy as np\n"
            "from fraclap import kazdan_warner as kw\n"
            "from fraclap.graph import build_graph\n"
            "g = build_graph([('x1', 1.0), ('x2', 1.0)], [('x1', 'x2', 1.0)])\n"
            "est = kw.estimate_threshold(g, 0.5, np.array([1.0, -3.0]), tol=1e-17)\n"
            "print(json.dumps({'c_low': est.c_low, 'c_high': est.c_high,\n"
            "    'width': est.width, 'probes': est.probes, 'cap_reached': est.cap_reached,\n"
            "    'u': est.attained_solution_at_threshold.tolist()}))\n"
        )
        assert not out["cap_reached"]
        assert 0.0 < out["width"] == out["c_high"] - out["c_low"]
        probes = {c: ok for c, ok in out["probes"]}
        assert probes[out["c_low"]] is False
        assert probes[out["c_high"]] is True
        p = problem(p2, out["c_high"], [1.0, -3.0])
        assert kw.check_solution(p, np.array(out["u"])).residual_inf <= 1e-8

    def test_nonpositive_kappa_is_minus_infinity(self, p2):
        with pytest.raises(ThresholdIsMinusInfinity):
            kw.estimate_threshold(p2, 0.5, np.array([-1.0, -2.0]), tol=1e-3)

    def test_nonnegative_integral_rejected(self, p2):
        with pytest.raises(ValueError):
            kw.estimate_threshold(p2, 0.5, np.array([2.0, -1.0]), tol=1e-3)

    def test_zero_kappa_rejected(self, p2):
        # screening certifies kappa = 0 unsolvable at every c < 0, so no
        # threshold exists and -infinity would be false
        with pytest.raises(ValueError, match=r"integral\(kappa\) >= 0"):
            kw.estimate_threshold(p2, 0.5, np.zeros(2), tol=1e-3)

    def test_minus_infinity_only_where_screening_certifies_it(self, p2):
        # at s > 1 the sufficient clause needs kappa < 0 everywhere; a zero
        # entry leaves the screen open, so the driver brackets it
        with pytest.raises(ThresholdIsMinusInfinity, match="high-order sufficient clause"):
            kw.estimate_threshold(p2, 1.5, np.array([-1.0, -2.0]), tol=1e-3)
        est = kw.estimate_threshold(p2, 1.5, np.array([0.0, -1.0]), tol=1e-3)
        assert est.c_low < est.c_high < 0.0
        p = problem(p2, est.c_high, [0.0, -1.0], s=1.5)
        assert kw.check_solution(p, est.attained_solution_at_threshold).residual_inf <= 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
        {"cap": 0}, {"cap": -1}, {"cap": math.nan},
    ])
    def test_invalid_tol_or_cap_rejected(self, p2, kwargs):
        with pytest.raises(ValueError):
            kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), **kwargs)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_invalid_residual_tol_rejected(self, p2, tol):
        # an infinite tolerance once walked to c = -1.2e18 in 64 probes
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]),
                                  opts=kw.SolveOptions(tol=tol))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_solve_rejects_invalid_tol(self, p2, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            kw.solve(problem(p2, 1.0, [1.0, 1.0]), kw.SolveOptions(tol=tol))

    def test_probe_consistency(self, p2):
        opts = kw.SolveOptions()
        est = kw.estimate_threshold(p2, 0.5, np.array([1.0, -3.0]), tol=1e-3,
                                    cap=64, opts=opts)
        assert_probes_below_earlier_successes(est)
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

    @pytest.mark.parametrize("kappa, expected", [
        ([1.0, -3.0], math.inf),  # kappa e^u overflows to inf at vertex 0
        ([0.0, -3.0], math.nan),  # 0 * inf
    ], ids=["inf", "nan"])
    def test_overflowing_exponential_is_reported_not_raised(self, p2, op_p2, kappa,
                                                            expected):
        p = problem(p2, -0.05, kappa)
        u = np.array([800.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = kw.check_solution(p, u, op_p2)
            with pytest.raises(NotSolved, match="^newton-continuation stopped at residual"):
                kw._verified(p, op_p2, u, "newton-continuation", 0, kw.SolveOptions())
        assert rep.residual_inf == expected or (math.isnan(expected)
                                                and math.isnan(rep.residual_inf))

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
        opts = kw.SolveOptions()
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


class TestSettingsAndOperatorChecks:
    def test_solve_options_holds_only_caller_settings(self):
        assert [f.name for f in dataclasses.fields(kw.SolveOptions)] == [
            "tol", "max_iter_monotone", "seed", "method", "override_screen",
        ]

    def test_solve_rejects_operator_for_another_exponent(self, er20, op_er20):
        # the s = 1.5 operator "solves" this s = 0.5 problem to 1e-14
        p = problem(er20, 1.0, np.random.default_rng(1).normal(size=er20.n))
        with pytest.raises(ValueError, match="built for s=1.5"):
            kw.solve(p, op=build_operator(op_er20.sd, 1.5))
        assert kw.solve(p, op=op_er20).residual_inf <= 1e-8

    def test_threshold_rejects_mismatched_operator(self, p2, op_p2):
        kappa = np.array([1.0, -3.0])
        with pytest.raises(ValueError, match="built for s=1.5"):
            kw.estimate_threshold(p2, 0.5, kappa, op=build_operator(op_p2.sd, 1.5))
        heavy = build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 2.0)])
        with pytest.raises(ValueError, match="does not belong"):
            kw.estimate_threshold(p2, 0.5, kappa, op=build_operator(decompose(heavy), 0.5))

    def test_resolvent_rejects_operator_of_another_graph(self, p2):
        heavy = build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 2.0)])
        op = build_operator(decompose(heavy), 0.5)
        with pytest.raises(ValueError, match="does not belong"):
            kw.resolvent_solve(p2, op, np.ones(2), np.array([1.0, -1.0]))

    def test_negative_seed_rejected(self, p2):
        opts = kw.SolveOptions(seed=-1)
        # the monotone route draws no restarts, so only the check stops it
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            kw.solve(problem(p2, -2.0, [-1.0, -1.0]), opts)

    @pytest.mark.parametrize("c, kappa, method", [
        (-0.05, [1.0, -3.0], "newton"),  # draws seeded restarts
        (-2.0, [-1.0, -1.0], "auto"),  # monotone iteration, no draws
    ])
    def test_solve_rejects_non_integer_seed(self, p2, op_p2, c, kappa, method):
        p = problem(p2, c, kappa)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            kw.solve(p, kw.SolveOptions(seed=1.5, method=method), op=op_p2)
        rep = kw.solve(p, kw.SolveOptions(seed=np.int64(3), method=method), op=op_p2)
        assert rep.residual_inf <= 1e-8

    @pytest.mark.parametrize("s", [0.0, math.nan])
    def test_problem_exponent_is_checked_by_split_exponent(self, p2, s):
        with pytest.raises(InvalidExponent, match="exponent must be a positive real"):
            problem(p2, 1.0, [1.0, 1.0], s=s)

    def test_threshold_draws_no_seed(self, p2):
        # the stable walk has no random starts, so the seed neither changes
        # the bracket nor is checked
        kappa = np.array([1.0, -3.0])
        base = kw.estimate_threshold(p2, 0.5, kappa, tol=1e-3)
        for seed in (1.5, -1, 7):
            est = kw.estimate_threshold(p2, 0.5, kappa, tol=1e-3,
                                        opts=kw.SolveOptions(seed=seed))
            assert est.probes == base.probes
