import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraclap import kazdan_warner as kw
from fraclap.errors import (
    CertificateUnsolvable,
    FraclapError,
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


def minimize(p, op):
    """The variational route alone: the minimization, screened and re-checked."""
    return kw.solve(p, kw.SolveOptions(method="variational"), op=op)


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
        # integral(kappa e^u) = 0 is impossible for one-signed kappa, at every s
        assert kw.screen(problem(p2, 0.0, [-1.0, -2.0], s=1.5)).status == kw.UNSOLVABLE

    @pytest.mark.parametrize("c, kappa, at_half, at_three_halves", [
        (1.0, [1.0, -3.0], "positive-c-solvable", "positive-c-solvable"),
        (1.0, [0.0, -2.0], "positive-c-fails", "positive-c-fails"),
        (0.0, [0.0, 0.0], "zero-kappa", "zero-kappa"),
        (0.0, [1.0, -3.0], "zero-c-solvable", "zero-c-solvable"),
        (0.0, [1.0, -1.0], "zero-c-fails", "zero-c-unknown"),
        (0.0, [1.0, 2.0], "zero-c-fails", "zero-c-integrated"),
        (0.0, [0.0, -2.0], "zero-c-fails", "zero-c-integrated"),
        (-1.0, [2.0, -1.0], "negative-c-fails", "negative-c-unknown"),
        (-1.0, [0.0, 1.0], "negative-c-fails", "negative-c-integrated"),
        (-1.0, [0.0, 0.0], "negative-c-fails", "negative-c-integrated"),
        (-1.0, [-1.0, -2.0], "negative-c-nonpositive", "negative-c-negative"),
        (-1.0, [0.0, -2.0], "negative-c-nonpositive", "negative-c-unknown"),
        (-1.0, [1.0, -3.0], "negative-c-regime", "negative-c-unknown"),
    ])
    def test_every_clause_keeps_its_verdict(self, p2, c, kappa, at_half, at_three_halves):
        # status and reason of each clause at s <= 1 and s > 1; only the two
        # integrated-equation clauses are new, and they decide only at s > 1
        clauses = {
            "positive-c-solvable": (kw.SOLVABLE, "c > 0 and kappa is positive somewhere "
                                    "(if-and-only-if criterion for positive c)"),
            "positive-c-fails": (kw.UNSOLVABLE, "c > 0 but kappa is nowhere positive "
                                 "(positive-c criterion fails)"),
            "zero-kappa": (kw.SOLVABLE, "c = 0 with kappa identically zero: every "
                           "constant function solves"),
            "zero-c-solvable": (kw.SOLVABLE, "c = 0 with sign-changing kappa of negative "
                                "integral (zero-c criterion)"),
            "zero-c-fails": (kw.UNSOLVABLE, "c = 0 requires kappa to change sign and have "
                             "negative integral (zero-c criterion fails)"),
            "zero-c-unknown": (kw.UNKNOWN, "c = 0 for s > 1: the sufficient clause does not "
                               "apply and no converse is available"),
            "zero-c-integrated": (kw.UNSOLVABLE, "c = 0 with kappa one-signed and not "
                                  "identically zero: integral(kappa e^u) = 0 is impossible "
                                  "(integrated equation)"),
            "negative-c-fails": (kw.UNSOLVABLE, "c < 0 requires the integral of kappa to be "
                                 "negative (necessary condition fails)"),
            "negative-c-nonpositive": (kw.SOLVABLE, "c < 0 with kappa nonpositive everywhere "
                                       "and negative integral: solvable for every c < 0"),
            "negative-c-regime": (kw.REGIME_DEPENDENT, "c < 0 with sign-changing kappa: "
                                  "solvability depends on the threshold constant"),
            "negative-c-negative": (kw.SOLVABLE, "c < 0 with kappa negative everywhere "
                                    "(high-order sufficient clause)"),
            "negative-c-integrated": (kw.UNSOLVABLE, "c < 0 with kappa nowhere negative: "
                                      "integral(kappa e^u) = c |V| < 0 is impossible "
                                      "(integrated equation)"),
            "negative-c-unknown": (kw.UNKNOWN, "c < 0 for s > 1 without everywhere-negative "
                                   "kappa: no clause applies"),
        }
        for s, clause in ((0.5, at_half), (1.5, at_three_halves)):
            v = kw.screen(problem(p2, c, kappa, s=s))
            assert (v.status, v.reasons) == (clauses[clause][0], (clauses[clause][1],))

    def test_every_reason_is_a_citation(self, p2):
        for c, kap in ((1.0, [1.0, 1.0]), (0.0, [1.0, -2.0]), (-1.0, [-1.0, -1.0])):
            v = kw.screen(problem(p2, c, kap))
            assert all(isinstance(r, str) and r for r in v.reasons)


def reduced_hessian_is_definite(p, op, u):
    """Whether the positive-c reduced Hessian energy + mu mu^T - c|V| (diag(w)
    - w w^T), w = kappa mu e^u / integral(kappa e^u), is positive definite
    at u, by the eigenvalues of the explicitly assembled matrix."""
    g = p.graph
    q = p.kappa * g.mu * np.exp(u - np.max(u))
    w, cv = q / np.sum(q), p.c * g.volume
    h = op.energy_matrix + np.outer(g.mu, g.mu) - cv * (np.diag(w) - np.outer(w, w))
    return bool(np.linalg.eigvalsh(h)[0] > 0)


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

    def test_route_past_the_certificate_fails(self, p2, op_p2):
        # a certified-unsolvable problem has no solution for the route to find
        with pytest.raises(NotSolved):
            kw._route(problem(p2, 1.0, [-1.0, -2.0]), kw.SolveOptions(), op_p2, [])

    @pytest.mark.parametrize("c, kappa, first, trace, match", [
        # the paper's method stalls, then Newton from zero stalls
        (1.0, [2.0, -1.0], "variational-positive-c", [
            "variational-positive-c stopped at residual", "newton-continuation: all starts",
        ], r"^newton-continuation: all starts failed \(1 start; smallest residual "
           r"\d\.\d{3}e-1[67] > tol 1\.000e-300\)$"),
        # Newton from zero, its one start, drifts to u = (-32, -32), at a
        # residual of about 1e-13, which is above this tol as well
        (0.0, [2.0, -3.0], "variational-zero-c", [
            "variational-zero-c stopped at residual", "newton-continuation: all starts",
        ], r"^newton-continuation: all starts failed \(1 start; smallest residual "
           r"\d\.\d{3}e-1[34] > tol 1\.000e-300\)$"),
        # kappa > 0 somewhere: no affine upper solution, so Newton runs
        # first; the stable walk accepts no point either, so the continuation
        # point adds no start
        (-0.05, [1.0, -3.0], "newton-continuation", ["newton-continuation: all starts"],
         r"^newton-continuation: all starts failed \(1 start; smallest residual "
         r"\d\.\d{3}e-1[67] > tol 1\.000e-300\)$"),
    ])
    def test_stalled_route_names_route_and_residual(self, p2, op_p2, c, kappa, first,
                                                    trace, match):
        # no double reaches a residual of 1e-300 here, so every route stalls
        with pytest.raises(NotSolved, match=match) as exc:
            kw.solve(problem(p2, c, kappa), kw.SolveOptions(tol=1e-300), op=op_p2)
        assert exc.value.trace[0].startswith(first)
        assert len(exc.value.trace) == len(trace)
        assert all(got.startswith(want) for got, want in zip(exc.value.trace, trace))
        assert exc.value.trace[-1] == str(exc.value)

    def test_each_paper_attempt_is_traced(self, p2, op_p2, monkeypatch):
        # "monotone" runs from the affine upper solution and then from the
        # continuation point; one sweep leaves each at the cap
        monkeypatch.setattr(kw, "_MAX_ITER_MONOTONE", 1)
        p = problem(p2, -0.01, [-0.1, -4.0])
        with pytest.raises(NotSolved) as exc:
            kw.solve(p, kw.SolveOptions(method="monotone"), op=op_p2)
        assert exc.value.trace == ("monotone-iteration: iteration cap reached",) * 2

    @pytest.mark.parametrize("c, kappa, s, settings", [
        (1.0, [2.0, -1.0], 0.5, {"tol": 1e-300}),
        (0.0, [2.0, -3.0], 0.5, {"tol": 1e-300}),
        (0.0, [1.0, -1.0], 2.0, {}),  # both routes drift
        (-0.01, [-0.1, -4.0], 0.5, {"tol": 1e-300}),
        (-0.01, [-0.1, -4.0], 0.5, {"method": "monotone", "sweeps": 1}),
        (-5.0, [1.0, -3.0], 0.5, {}),  # far past the threshold
        (-5.0, [1.0, -3.0], 0.5, {"method": "monotone"}),
    ])
    def test_every_trace_entry_begins_with_a_route_tag(self, p2, monkeypatch, c, kappa, s,
                                                       settings):
        tags = ("variational-positive-c", "variational-zero-c", "monotone-iteration",
                "newton-continuation")
        settings = dict(settings)
        if "sweeps" in settings:  # the monotone sweep cap
            monkeypatch.setattr(kw, "_MAX_ITER_MONOTONE", settings.pop("sweeps"))
        op = build_operator(decompose(p2), s)
        with pytest.raises(NotSolved) as exc:
            kw.solve(problem(p2, c, kappa, s=s), kw.SolveOptions(**settings), op=op)
        assert exc.value.trace
        assert all(entry.split(" ")[0].rstrip(":") in tags for entry in exc.value.trace)

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
        # Newton from zero fails here; the continuation point
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

    @pytest.mark.parametrize("seed, n, s, c", [
        (316, 10, 2.0, 4.7412),  # L-BFGS-B stopped at residual 1.4; Newton took over
        # the minimizer's mass is 3.4e-3 of its absolute mass: trial steps
        # cross mass zero and are halved back
        (706, 51, 2.0, 0.0041),
    ], ids=["seed316", "seed706"])
    def test_former_variational_stall_is_solved_by_descent(self, random_connected, seed, n,
                                                             s, c):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, int(rng.integers(10, 60)))
        s_drawn = float(rng.choice([0.5, 1, 1.5, 2, 2.5]))
        kappa = rng.normal(size=g.n) * rng.choice([1, 3, 10]) - rng.uniform(0, 1)
        c_drawn = float(rng.choice([0, 1]) * 10 ** rng.uniform(-3, 1))
        assert (g.n, s_drawn) == (n, s) and c_drawn == pytest.approx(c, abs=1e-4)
        p = problem(g, c_drawn, kappa, s=s)
        assert kw.screen(p).status == kw.SOLVABLE
        op = build_operator(decompose(g), s)
        rep = kw.solve(p, kw.SolveOptions(method="variational"), op=op)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8
        assert reduced_hessian_is_definite(p, op, rep.solution)

    def test_failed_negative_c_runs_newton_from_fixed_starts_only(self, random_connected,
                                                                   monkeypatch):
        # no start reaches a root at c here: Newton at c runs from zero and
        # from each upper solution, and from no random start
        rng = np.random.default_rng((37, 7))
        g = random_connected(rng, 30)
        p = problem(g, -0.2, rng.normal(size=g.n) - 0.5)
        op = build_operator(decompose(g), 0.5)
        affine = kw._affine_upper_solution(p, op)
        uppers = list(kw._upper_solutions(p, kw.SolveOptions(), op, affine))
        runs, real = [], kw._newton_attempts

        def counted(op_, kappa, c, starts, opts):  # one damped-Newton run per start
            return real(op_, kappa, c, (runs.append(c) or u0 for u0 in starts), opts)

        monkeypatch.setattr(kw, "_newton_attempts", counted)
        with pytest.raises(NotSolved, match="^newton-continuation: all starts failed"):
            kw.solve(p, op=op)
        assert runs.count(p.c) == len(runs)
        assert 1 <= len(runs) <= 1 + len(uppers)

    def test_subnormal_negative_c_is_not_solved(self, p2, op_p2):
        # c / 2 underflows to -0.0, where the stable walk has no start: the
        # halving stops there, and the route ends in NotSolved, not in a
        # math domain error
        kappa = np.array([1.0, -3.0])
        probes = []
        assert kw._stable_walk(op_p2, kappa, -5e-324 / 2.0, -math.inf, kw.SolveOptions(),
                               1e-3, probes, math.inf) is None
        assert probes == []
        with pytest.raises(NotSolved, match="^newton-continuation: all starts failed"):
            kw.solve(problem(p2, -5e-324, kappa), op=op_p2)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("c", [1e150, 1e300])
    def test_overflowing_descent_is_not_solved(self, p2, c, s):
        # the descent's CG inner products overflow at this c; pyproject makes
        # a raw RuntimeWarning from fraclap an error, so this also checks
        # that the descent ends without one
        op = build_operator(decompose(p2), s)
        with pytest.raises(NotSolved, match="^newton-continuation: all starts failed"):
            kw.solve(problem(p2, c, [1.0, -3.0], s=s), op=op)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    @pytest.mark.parametrize("c, kappa, guard", [
        (0.0, [1.0, 2.0, 0.5], "variational-zero-c: constraint set empty: kappa must change sign"),
        (1.0, [-1.0, -2.0, -0.5], "variational-positive-c: kappa is nowhere positive"),
    ], ids=["zero-c", "positive-c"])
    def test_route_past_the_screen_meets_the_sign_guard(self, c, kappa, guard, s):
        # these signs leave the variational step no start: the screen
        # certifies that at every s, and the route past it records the
        # step's guard, then Newton from zero fails as well
        g = build_graph([(f"p{i}", 1.0) for i in range(3)],
                        [("p0", "p1", 1.0), ("p1", "p2", 1.0)])
        p, op = problem(g, c, kappa, s=s), build_operator(decompose(g), s)
        with pytest.raises(CertificateUnsolvable):
            kw.solve(p, op=op)
        failed = []
        with pytest.raises(NotSolved, match="^newton-continuation: all starts failed"):
            kw._route(p, kw.SolveOptions(), op, failed)
        assert type(failed[0]) is NotSolved and str(failed[0]) == guard


class TestSolvePositiveC:
    @pytest.mark.parametrize("c, tol", [(1e-5, 1e-12), (1e-7, 1e-10)])
    def test_small_c_reaches_tight_tol(self, p2, op_p2, c, tol):
        # the descent stops just above tol; equation Newton finishes
        p = problem(p2, c, [1.0, -3.0])
        assert kw.screen(p).status == kw.SOLVABLE
        rep = kw.solve(p, kw.SolveOptions(tol=tol), op=op_p2)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op_p2).residual_inf <= tol

    def test_small_c_at_scale(self, random_connected):
        # the minimizer of this n=200 problem lies near zero mass: the descent
        # takes 149 steps and ends at residual 4e-10 (L-BFGS-B and its polish
        # stopped at 1.48)
        rng = np.random.default_rng(5)
        g = random_connected(rng, 200)
        p = problem(g, 1e-7, rng.normal(size=g.n) - 0.5)
        assert kw.screen(p).status == kw.SOLVABLE
        op = build_operator(decompose(g), 0.5)
        rep = kw.solve(p, op=op)
        assert rep.method == "variational-positive-c"
        assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8

    def test_trivial_constant(self, p2, op_p2):
        rep = minimize(problem(p2, 1.0, [1.0, 1.0]), op_p2)
        assert np.allclose(rep.solution, 0.0, atol=1e-12)
        assert rep.energy == pytest.approx(0.0, abs=1e-12)

    def test_constant_ansatz(self, p2, op_p2):
        rep = minimize(problem(p2, 1.0, [2.0, 2.0]), op_p2)
        assert np.allclose(rep.solution, -math.log(2.0), atol=1e-9)
        assert rep.residual_inf <= 1e-9

    def test_sign_changing_kappa(self, p2, op_p2):
        p = problem(p2, 1.0, [2.0, -1.0])
        rep = minimize(p, op_p2)
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
            rep = minimize(p, op_er20)
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
        with pytest.raises(NotSolved, match="^variational-positive-c: candidate is not finite"):
            minimize(p, op_p2)
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

    def test_descent_factors_only_its_certificate(self, random_connected, monkeypatch):
        # the descent leaves the residual within tol, so no equation Newton
        # step runs, and its preconditioner is spectral: the one factor is
        # that of the reduced Hessian
        rng = np.random.default_rng(0)
        g = random_connected(rng, 60)
        op = build_operator(decompose(g), 0.5)
        p = problem(g, float(rng.uniform(0.5, 2.0)), rng.normal(size=g.n))
        chol = counting(monkeypatch, scipy.linalg, "cho_factor")
        lu = counting(monkeypatch, np.linalg, "solve")
        rep = minimize(p, op)
        assert rep.residual_inf <= 1e-8
        assert len(chol) == 1 and lu == []
        assert reduced_hessian_is_definite(p, op, rep.solution)

    def test_end_point_without_a_factor_is_not_returned(self, p2, op_p2, monkeypatch):
        # the certificate is the route's one factorization; failing it fails the route
        calls = []
        monkeypatch.setattr(scipy.linalg, "cho_factor",
                            lambda *args, **kwargs: calls.append(1) or fail_cholesky())
        with pytest.raises(NotSolved, match="^variational-positive-c did not end at a "
                                            "minimizer") as exc:
            minimize(problem(p2, 1.0, [2.0, -1.0]), op_p2)
        assert exc.value.trace == (str(exc.value),)  # the route's one attempt
        assert calls == [1]


class TestSolveZeroC:
    def test_manufactured(self, p2, op_p2):
        kappa = [SQRT2 * math.exp(-1.0), -SQRT2 * math.e]
        rep = minimize(problem(p2, 0.0, kappa), op_p2)
        assert rep.residual_inf <= 1e-8
        assert abs(integral(p2, np.asarray(kappa) * np.exp(rep.solution))) <= 1e-8

    def test_p2_instance(self, p2, op_p2):
        p = problem(p2, 0.0, [1.0, -2.0])
        rep = minimize(p, op_p2)
        assert rep.residual_inf <= 1e-8
        assert abs(integral(p2, p.kappa * np.exp(rep.solution))) <= 1e-8

    def test_kappa_identically_zero(self, p2, op_p2):
        # every constant solves and every mean-zero u meets the constraints
        p = problem(p2, 0.0, [0.0, 0.0])
        rep = minimize(p, op_p2)
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
        rep = minimize(p, op_er20)
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

    def test_restored_mass_vanishes_at_scale(self, random_connected):
        # the root found on the two moving vertices and the rest's mass summed
        # once balances the mass summed over every vertex
        rng = np.random.default_rng(8)
        g = random_connected(rng, 200)
        kappa = rng.normal(size=g.n) - 0.3
        bump = kw._meanzero_bump(g, kappa)
        for _ in range(5):
            u = rng.normal(scale=3.0, size=g.n)
            w = kw._restore_constraint(g, kappa, u, bump)
            assert integral(g, w) == pytest.approx(0.0, abs=1e-12)
            scaled = kappa * g.mu * np.exp(w - np.max(w))
            assert abs(np.sum(scaled)) <= 1e-12 * np.sum(np.abs(scaled))
            # w = u + beta bump - mean, one beta for both moving vertices
            moved, shift = w - u, (w - u)[bump == 0]
            assert np.ptp(shift) <= 1e-12
            beta = (moved[bump != 0] - shift[0]) / bump[bump != 0]
            assert beta[0] == pytest.approx(beta[1], rel=1e-12)

    def test_newton_rejects_drift_to_minus_infinity(self, random_connected):
        # Newton from zero, the one start at c = 0, drifts to the constant
        # -27, where kappa e^u is 4.7e-12 and the residual alone cannot tell
        # it from a solution
        rng = np.random.default_rng(3)
        g = random_connected(rng, 40)
        p = problem(g, 0.0, rng.normal(size=g.n) - 0.3)
        op = build_operator(decompose(g), 0.5)
        u, _ = kw._damped_newton(op, p.kappa, 0.0, np.zeros(g.n), kw.SolveOptions())
        accepted, residual, _ = kw._accepted(op, p.kappa, 0.0, u, 1e-8)
        assert residual <= 1e-8 and not accepted and np.all(u < -20.0)
        with pytest.raises(NotSolved, match=r"^newton-continuation: all starts failed \(1 start;"):
            kw.solve(p, kw.SolveOptions(method="newton"), op=op)
        assert kw.solve(p, op=op).method == "variational-zero-c"

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
    def test_drift_without_solution_is_not_solved(self, p2, s):
        # integrating the equation forces u1 = u2 and then kappa e^u = 0, so
        # no solution exists; Newton from zero drifts toward a constant
        # -infinity with a residual within tol
        op = build_operator(decompose(p2), s)
        p = problem(p2, 0.0, [1.0, -1.0], s=s)
        with pytest.raises(NotSolved, match="all starts failed"):
            kw.solve(p, op=op)
        u, its = kw._damped_newton(op, p.kappa, 0.0, np.zeros(2), kw.SolveOptions())
        accepted, residual, _ = kw._accepted(op, p.kappa, 0.0, u, 1e-8)
        assert residual <= 1e-8 and not accepted and np.all(u < -17.0)
        with pytest.raises(NotSolved, match=r"^newton-continuation stopped at residual \S+, a "
                                            r"drift: \S+ of the equation's scale \S+$"):
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


class TestTrustRegion:
    """The one trust-region Newton-CG descent of both variational routes."""

    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("graph", ["p2", "er20"])
    def test_hessian_product_matches_gradient_differences(self, request, monkeypatch,
                                                          graph, c):
        g = request.getfixturevalue(graph)
        op = build_operator(decompose(g), 0.5)
        rng = np.random.default_rng(4)
        kappa = np.array([2.0, -3.0]) if g.n == 2 else rng.normal(size=g.n) - 0.3
        funs = []
        real = kw._trust_region
        monkeypatch.setattr(kw, "_trust_region",
                            lambda fun, *args: funs.append(fun) or real(fun, *args))
        minimize(problem(g, c, kappa), op)
        objective, h = funs[0], 1e-6
        for _ in range(3):
            f, d = math.inf, rng.normal(size=g.n)
            while not math.isfinite(f):  # c > 0 needs integral(kappa e^v) > 0
                v = rng.normal(size=g.n)
                f, grad, hessp = objective(v)
            central = (objective(v + h * d)[1] - objective(v - h * d)[1]) / (2.0 * h)
            scale = np.max(np.abs(central)) + np.max(np.abs(grad))
            assert np.max(np.abs(hessp(d) - central)) <= 1e-6 * scale

    @staticmethod
    def graph_of(request, random_connected, graph):
        if graph == "er20":
            return request.getfixturevalue("er20")
        return random_connected(np.random.default_rng(300), 300)

    @pytest.mark.parametrize("s", [0.5, 2.5])
    @pytest.mark.parametrize("graph", ["er20", "n300"])
    def test_spectral_inverse_is_the_cholesky_solve(self, request, random_connected, graph,
                                                    s):
        # on the kernel and even orders op_matrix is the spectral power, so
        # the preconditioner is exactly M^-1, M = energy matrix + mu mu^T
        g = self.graph_of(request, random_connected, graph)
        op = build_operator(decompose(g), s)
        factor = scipy.linalg.cho_factor(op.energy_matrix + np.outer(g.mu, g.mu))
        inverse = kw._spectral_inverse(op)
        for b in np.random.default_rng(8).normal(size=(3, g.n)):
            expected = scipy.linalg.cho_solve(factor, b)
            assert np.max(np.abs(inverse(b) - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("graph", ["er20", "n300"])
    def test_spectral_inverse_is_definite_on_odd_orders(self, request, random_connected,
                                                        graph):
        # at s = 1.5 op_matrix is not the spectral power: the preconditioner
        # is a stand-in for M^-1, and CG needs only that it is SPD
        g = self.graph_of(request, random_connected, graph)
        op = build_operator(decompose(g), 1.5)
        inverse = kw._spectral_inverse(op)
        matrix = np.column_stack([inverse(e) for e in np.eye(g.n)])
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-12 * np.max(np.abs(matrix))
        assert np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0] > 0

    @pytest.mark.parametrize("curvature", [math.inf, math.nan])
    def test_nonfinite_inner_product_ends_the_descent_where_it_stands(self, op_p2,
                                                                     curvature):
        def fun(x):
            return float(x @ x), 2.0 * x, lambda d: np.full_like(d, curvature)

        x0 = np.array([1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, steps = kw._trust_region(fun, x0, op_p2, 1e-13)
        assert steps == 0 and np.array_equal(x, x0)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("graph", ["er20", "n300"])
    def test_zero_c_descent_factors_nothing(self, request, random_connected, monkeypatch,
                                            graph, s):
        # c = 0 has no certificate, and its polish steps are LU: with every
        # Cholesky factorization failing, the route still solves
        g = self.graph_of(request, random_connected, graph)
        op = build_operator(decompose(g), s)
        p = problem(g, 0.0, np.random.default_rng(9).normal(size=g.n) - 0.5, s=s)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        rep = kw.solve(p, kw.SolveOptions(method="variational"), op=op)
        assert rep.method == "variational-zero-c"
        assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8

    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("k", range(8))
    def test_sweep_ends_verified_or_typed(self, random_connected, k, n):
        # kappa of negative mean at even k, positive at odd k, where c = 0
        # has no solution or none that screening certifies
        rng = np.random.default_rng((k, 7))
        g = random_connected(rng, n)
        kappa = rng.normal(size=n) + (-0.5, 0.3)[k % 2]
        sd = decompose(g)
        for s in (0.5, 1.5, 2.5):
            op = build_operator(sd, s)
            for c in (0.0, 0.5, 2.0):
                p = problem(g, c, kappa, s=s)
                try:
                    rep = kw.solve(p, op=op)
                except FraclapError:
                    assert c == 0.0, (s, c)  # kappa > 0 somewhere: c > 0 solves
                    continue
                assert kw.check_solution(p, rep.solution, op).residual_inf <= 1e-8
                if c > 0:
                    assert rep.method == "variational-positive-c", (s, c)
                    assert reduced_hessian_is_definite(p, op, rep.solution), (s, c)


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
        # bit, the lower factor of diag(mu) (A + diag(phi)) symmetrized per call
        def inline(phi, f):
            sym = er20.mu[:, None] * op_er20.op_matrix + np.diag(er20.mu * phi)
            sym = 0.5 * (sym + sym.T)
            factor = scipy.linalg.cho_factor(sym, lower=True)
            return scipy.linalg.cho_solve(factor, er20.mu * f)

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
    """Every Newton step solves one matrix, mu times the Jacobian: by
    Cholesky at c < 0, by LU on the same matrix where that fails and at
    c >= 0."""

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
        u, its = kw._damped_newton(op_p2, kappa, c, u0, kw.SolveOptions())
        assert len(lu) > 0
        assert kw._accepted(op_p2, kappa, c, u, 1e-8)[0] and its > 0
        assert np.max(np.abs(kw._residual(op_p2, kappa, c, u))) < 1e-8 * start

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_cholesky_step_equals_lu_step(self, random_connected, monkeypatch, s):
        # one matrix X per step: a Newton step's (mu J) s = -mu r
        rng = np.random.default_rng(15)
        g = random_connected(rng, 200)
        op = build_operator(decompose(g), s)
        kappa = -np.abs(rng.normal(size=g.n)) - 0.1
        u = rng.normal(size=g.n)
        ke = kappa * np.exp(u)
        phi, b = -ke, -g.mu * kw._residual(op, kappa, -1.0, u)
        reference = g.mu[:, None] * (op.op_matrix - np.diag(ke))
        assert np.linalg.eigvalsh(0.5 * (reference + reference.T))[0] > 0
        expected = np.linalg.solve(reference, b)
        lu = counting(monkeypatch, np.linalg, "solve")
        step = kw._newton_step(g, op, phi, b)
        assert len(lu) == 0
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        via_lu = kw._newton_step(g, op, phi, b)
        assert len(lu) == 1
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(step - via_lu)) <= 1e-12 * scale
        assert np.max(np.abs(step - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
    def test_reduced_hessian_factor_matches_assembly(self, er20, op_er20, definite):
        # the positive-c certificate: weights split over two vertices make
        # -cv (diag(w) - w w^T) indefinite for a large cv
        rng = np.random.default_rng(15)
        g, op, cv = er20, op_er20, 0.5 if definite else 1e3
        w = np.zeros(g.n)
        w[[0, 1]] = 0.5
        reference = (op.energy_matrix - cv * (np.diag(w) - np.outer(w, w))
                     + np.outer(g.mu, g.mu))
        assert (np.linalg.eigvalsh(reference)[0] > 0) == definite
        solve = kw._shifted_cholesky(g, op, -cv * w / g.mu, ((cv, w), (1.0, g.mu)))
        assert (solve is not None) == definite
        if definite:
            b = rng.normal(size=g.n)
            expected = np.linalg.solve(reference, b)
            assert np.max(np.abs(solve(b) - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_failed_factor_falls_back_to_lu_with_the_same_run(self, random_connected,
                                                               monkeypatch):
        rng = np.random.default_rng(61)
        g = random_connected(rng, 60)
        op = build_operator(decompose(g), 0.5)
        kappa = -np.abs(rng.normal(size=g.n)) - 0.1
        u0 = rng.normal(size=g.n)
        opts = kw.SolveOptions()
        u_chol, its_chol = kw._damped_newton(op, kappa, -1.0, u0, opts)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        lu = counting(monkeypatch, np.linalg, "solve")
        u_lu, its_lu = kw._damped_newton(op, kappa, -1.0, u0, opts)
        assert all(kw._accepted(op, kappa, -1.0, u, opts.tol)[0] for u in (u_chol, u_lu))
        assert its_chol == its_lu == len(lu)
        assert np.max(np.abs(u_chol - u_lu)) <= 1e-12 * (1.0 + np.max(np.abs(u_lu)))

    def test_overflowed_shift_ends_the_run(self, monkeypatch):
        # the residual is finite (1e304), but mu kappa e^u overflows the
        # shift, so there is no step: nothing is factored and Newton stops
        g = build_graph([("x1", 1e6), ("x2", 1.0)], [("x1", "x2", 1.0)])
        op = build_operator(decompose(g), 0.5)
        chol = counting(monkeypatch, scipy.linalg, "cho_factor")
        lu = counting(monkeypatch, np.linalg, "solve")
        u0 = np.array([700.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, its = kw._damped_newton(op, np.array([-1.0, -1.0]), -1.0, u0,
                                       kw.SolveOptions())
            assert not kw._accepted(op, np.array([-1.0, -1.0]), -1.0, u, 1e-8)[0]
        assert its == 0 and np.array_equal(u, u0)
        assert chol == [] and lu == []

    def test_failed_factor_stays_typed(self, p2, op_p2, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_cholesky)
        with pytest.raises(SingularSystem, match="^resolvent system not positive definite"):
            kw.resolvent_solve(p2, op_p2, np.ones(2), np.ones(2))
        p = problem(p2, -2.0, [-1.0, -1.0])
        with pytest.raises(SingularSystem, match="^monotone system not positive definite"):
            kw.solve_negative_c_monotone(p, np.ones(2), op=op_p2)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_energy_matrix_is_never_factored(self, p2, op_p2, monkeypatch,
                                                        entry, value):
        # the factorization scans no matrix, so the once-per-operator test
        # must keep a non-finite entry from every factor and solve: Newton
        # has no step and ends where it starts
        op = dataclasses.replace(op_p2)
        energy = op_p2.energy_matrix.copy()
        energy[entry] = value
        vars(op)["energy_matrix"] = energy
        chol = counting(monkeypatch, scipy.linalg, "cho_factor")
        assert kw._shifted_cholesky(p2, op, np.ones(2)) is None
        with pytest.raises(SingularSystem, match="^resolvent system"):
            kw.resolvent_solve(p2, op, np.ones(2), np.ones(2))
        p = problem(p2, -2.0, [-1.0, -1.0])
        with pytest.raises(SingularSystem, match="^monotone system"):
            kw.solve_negative_c_monotone(p, np.ones(2), op=op)
        lu = counting(monkeypatch, np.linalg, "solve")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, its = kw._damped_newton(op, p.kappa, p.c, np.ones(2), kw.SolveOptions())
            assert not kw._accepted(op, p.kappa, p.c, u, 1e-8)[0]
        assert its == 0 and np.array_equal(u, np.ones(2))
        assert chol == [] and lu == []

    def test_singular_step_ends_the_run(self, p2, op_p2, monkeypatch):
        # kappa = 0 leaves the Jacobian op_matrix, singular on constants, so
        # every run ends at its first step and every start fails
        def no_lstsq(*args, **kwargs):
            pytest.fail("a Newton step is a Cholesky or an LU solve")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        opts = kw.SolveOptions(method="newton")  # the screen certifies this unsolvable
        with pytest.raises(NotSolved, match="all starts failed"):
            kw._route(problem(p2, 1.0, [0.0, 0.0]), opts, op_p2, [])

    @pytest.mark.parametrize("u0", [[800.0, 0.0], [math.nan, 0.0]], ids=["overflow", "nan"])
    def test_nonfinite_start_is_not_converged(self, p2, op_p2, capfd, u0):
        # the start's residual is not finite, so no factorization may see it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, its = kw._damped_newton(op_p2, np.array([1.0, -3.0]), -0.05,
                                       np.array(u0), kw.SolveOptions())
            assert not kw._accepted(op_p2, np.array([1.0, -3.0]), -0.05, u, 1e-8)[0]
        assert its == 0
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

    @pytest.mark.parametrize("k, n, s, c", [(15, 60, 1.5, -0.2), (36, 30, 2.5, -1.0)])
    def test_walk_stopped_short_retries_its_target(self, random_connected, k, n, s, c):
        # the walk's first step, from c/2, lands on c and fails from its long
        # tangent step, and bisection stops 2e-10 to 1e-9 above c; Newton at
        # the target from that last solution gives a stable point past c
        rng = np.random.default_rng((k, 7))
        g = random_connected(rng, n)
        p = problem(g, c, rng.normal(size=n) - 0.5, s=s)
        op = build_operator(decompose(g), s)
        up = kw.construct_upper_solution(p, op=op)
        assert up is not None
        assert kw.check_solution(p, up, op).slack_min >= 0.0
        assert kw._shifted_cholesky(p.graph, op, -p.kappa * np.exp(up)) is not None  # stable

    @pytest.mark.parametrize("c", [-0.01, -1e-3, -1e-5])
    @pytest.mark.parametrize("on_p2", [True, False], ids=["p2", "random30"])
    def test_continuation_slack_is_nonnegative_at_loose_tol(self, p2, random_connected,
                                                            on_p2, c):
        # the walk accepts residuals up to tol, so its target lies 2 tol past
        # c; a margin of |c| 1e-6 alone left the slack at -8.9e-9 on P2 at
        # c = -1e-5, and at -1.1e-8 to -4.2e-8 on the random graph
        if on_p2:
            g, kappa = p2, np.array([1.0, -3.0])
        else:
            rng = np.random.default_rng((0, 7))
            g = random_connected(rng, 30)
            kappa = rng.normal(size=g.n) - 0.5
        p = problem(g, c, kappa)
        op = build_operator(decompose(g), 0.5)
        up = kw.construct_upper_solution(p, kw.SolveOptions(tol=1e-4), op=op)
        assert up is not None
        assert kw.check_solution(p, up, op).slack_min >= 0.0

    @pytest.mark.parametrize("c, found", [(-0.10413, True), (-0.104136, True),
                                          (-0.1041363, False)])
    def test_continuation_near_the_fold_at_loose_tol(self, p2, op_p2, p2_threshold, c,
                                                      found):
        # c lies 6.4e-6, 3.5e-7 and 4.6e-8 above c* = -0.1041363..., within
        # 2 tol of the fold: a walk to c - 2 tol stops at the fold, where its
        # last residual (up to tol) left the slack at c at -2.4e-6 to -3.5e-5;
        # the point is a solution past c with nonnegative slack, or absent
        assert 0.0 < c - p2_threshold < 2e-4
        p = problem(p2, c, [1.0, -3.0])
        opts = kw.SolveOptions(tol=1e-4)
        up = kw.construct_upper_solution(p, opts, op=op_p2)
        assert (up is not None) == found
        if found:
            assert kw.check_solution(p, up, op_p2).slack_min >= 0.0
            rep = kw.solve(p, dataclasses.replace(opts, method="monotone"), op=op_p2)
            assert rep.method == "monotone-iteration"
        else:
            with pytest.raises(NotSolved, match="^monotone-iteration: no upper solution"):
                kw.solve(p, dataclasses.replace(opts, method="monotone"), op=op_p2)

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

    @pytest.mark.parametrize("t", [1e-300, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e300])
    def test_p2_bracket_does_not_depend_on_kappas_amplitude(self, p2, op_p2, p2_threshold, t):
        # kappa -> t kappa, u -> u - log t leaves the equation as it is, so
        # the threshold, its bracket and the shifted solution stay put
        kappa = t * np.array([1.0, -3.0])
        est = kw.estimate_threshold(p2, 0.5, kappa, tol=1e-6, op=op_p2)
        assert not est.cap_reached
        assert est.c_low <= p2_threshold <= est.c_high
        assert (est.c_low, est.c_high) == pytest.approx(
            (-0.10413678487141927, -0.10413614908854166), rel=1e-15)
        u = est.attained_solution_at_threshold
        assert kw._accepted(op_p2, kappa, est.c_high, u, 1e-8)[0]
        assert u + math.log(t) == pytest.approx([-1.2276752, -1.7892722], abs=1e-7)

    def test_walk_accepts_no_round_off_point(self, p2, op_p2, p2_threshold):
        # at kappa = 1e-20 (1, -3) and c = -3.3e-16 every term of the
        # equation at the constant start log(c / kbar) is about 1e-16: it
        # meets the 1e-8 tolerance without being a solution. A walk that took
        # such points bracketed the threshold at [-6.6e-16, -3.3e-16]
        kappa, c = 1e-20 * np.array([1.0, -3.0]), -3.2768e-16
        u0 = np.full(2, math.log(c / -1e-20))
        accepted, residual, scale = kw._accepted(op_p2, kappa, c, u0, 1e-8)
        assert residual <= 1e-8 and residual > 0.1 * scale and not accepted
        assert kw._stable_point(op_p2, kappa, c, u0, kw.SolveOptions()) is None
        est = kw.estimate_threshold(p2, 0.5, kappa, op=op_p2)
        assert est.c_low <= p2_threshold <= est.c_high
        for c_probe, solved in est.probes:
            assert not solved or c_probe < -1e-3

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

    def test_solve_prefers_a_stable_root(self, random_connected):
        # Newton from zero converges to an unstable root at c = -0.05 (mu J
        # has eigenvalue -6.43 there); the next start, the continuation
        # point, gives the stable one
        rng = np.random.default_rng(1)
        g = random_connected(rng, 300)
        kappa = rng.normal(size=g.n) - 0.5
        op = build_operator(decompose(g), 0.5)

        def lowest(u):
            mu_j = op.energy_matrix - np.diag(g.mu * kappa * np.exp(u))
            return np.linalg.eigvalsh(mu_j)[0]

        first, _ = kw._newton_attempts(op, kappa, -0.05, [np.zeros(g.n)], kw.SolveOptions())
        assert lowest(first) < -6.0  # no stable root among the starts: kept
        rep = kw.solve(problem(g, -0.05, kappa), op=op)
        assert rep.method == "newton-continuation"
        assert rep.residual_inf <= 1e-8 and lowest(rep.solution) > 0.05

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
        assert (est.c_low, est.c_high) == (-0.10416666666666666, -0.103515625)
        assert est.probes == (
            (-0.020833333333333332, True), (-0.041666666666666664, True),
            (-0.08333333333333333, True), (-0.16666666666666666, False), (-0.125, False),
            (-0.10416666666666666, False), (-0.09375, True), (-0.09895833333333333, True),
            (-0.1015625, True), (-0.10286458333333333, True), (-0.103515625, True))
        assert est.attained_solution_at_threshold.tolist() == [
            -1.3301518150723772, -1.8505155670582878]

    def test_bisection_never_probes_below_a_failure(self, op_p2, monkeypatch):
        # scripted outcomes: two doublings solve, then failures and successes
        # alternate; after the first failure every probe lies strictly
        # between the last solution and the last failure
        outcomes = iter([True, True, True, False, True, False])  # the start first

        def scripted(op, kappa, c, u0, opts):
            return (u0, np.zeros(2)) if next(outcomes, True) else None

        monkeypatch.setattr(kw, "_stable_point", scripted)
        probes = []
        c, _, failed = kw._stable_walk(op_p2, np.array([1.0, -3.0]), -0.01, -math.inf,
                                       kw.SolveOptions(), 1e-3, probes, math.inf)
        assert [p for p, _ in probes[:6]] == [-0.01, -0.02, -0.04, -0.08, -0.06, -0.07]
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

    def test_walk_need_claims_no_unsolvability(self):
        # integral(kappa) > 0 at s = 2.5, which screening leaves open: the
        # walk cannot start, but c = -0.1373 has a solution, so the error
        # names the walk's need and not a certificate
        g = build_graph([(f"p{i}", 1.0) for i in range(4)],
                        [(f"p{i}", f"p{i + 1}", 1.0) for i in range(3)])
        kappa = np.array([0.226, 1.318, -1.214, 0.036])
        op = build_operator(decompose(g), 2.5)
        with pytest.raises(ValueError, match=r"needs integral\(kappa\) < 0") as exc:
            kw.estimate_threshold(g, 2.5, kappa, op=op)
        assert "unsolvable" not in str(exc.value)
        u, _ = kw._damped_newton(op, kappa, -0.1373, np.array([-0.17, 0.49, 2.05, 5.21]),
                                 kw.SolveOptions())
        p = problem(g, -0.1373, kappa, s=2.5)
        assert kw.check_solution(p, u, op).residual_inf <= 1e-8

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


@pytest.mark.parametrize("call, match", [
    (lambda p2, op: problem(p2, math.nan, [1.0, -3.0]), "c must be finite"),
    (lambda p2, op: problem(p2, -math.inf, [1.0, -3.0]), "c must be finite"),
    (lambda p2, op: kw.construct_upper_solution(problem(p2, 0.0, [1.0, -3.0]), op=op),
     "for c < 0 only"),
    (lambda p2, op: kw.solve_negative_c_monotone(problem(p2, 0.0, [1.0, -3.0]), [0.0, 0.0],
                                                 op=op), "requires c < 0"),
    (lambda p2, op: kw.solve_negative_c_monotone(problem(p2, -1.0, [1.0, -3.0], s=1.5),
                                                 [0.0, 0.0]), "unavailable for s > 1"),
    (lambda p2, op: kw.solve(problem(p2, 1.0, [1.0, -3.0]), kw.SolveOptions(method="fast"),
                             op=op), "unknown method 'fast'"),
    (lambda p2, op: kw.solve(problem(p2, -1.0, [1.0, -3.0]),
                             kw.SolveOptions(method="variational"), op=op), "covers c >= 0 only"),
    (lambda p2, op: kw.solve(problem(p2, 1.0, [1.0, -3.0]),
                             kw.SolveOptions(method="monotone"), op=op), "requires c < 0"),
    (lambda p2, op: kw.solve(problem(p2, -1.0, [1.0, -3.0], s=1.5),
                             kw.SolveOptions(method="monotone")), "unavailable for s > 1"),
], ids=["nan-c", "infinite-c", "upper-solution", "monotone-route", "monotone-route-above-1",
        "unknown-method", "variational-at-negative-c", "monotone-at-positive-c",
        "monotone-above-1"])
def test_public_input_rejections(p2, op_p2, call, match):
    with pytest.raises(ValueError, match=match):
        call(p2, op_p2)


class TestSettingsAndOperatorChecks:
    def test_solve_options_holds_only_caller_settings(self):
        assert [f.name for f in dataclasses.fields(kw.SolveOptions)] == [
            "tol", "method",
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

    @pytest.mark.parametrize("s", [0.0, math.nan])
    def test_problem_exponent_is_checked_by_split_exponent(self, p2, s):
        with pytest.raises(InvalidExponent, match="exponent must be a positive real"):
            problem(p2, 1.0, [1.0, 1.0], s=s)
