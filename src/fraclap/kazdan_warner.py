"""Solvers for the fractional Kazdan-Warner equation on a finite graph:

    (-Delta)^s u = kappa * exp(u) - c.

Sign screening certifies solvability or unsolvability where the sign of
(c, kappa) decides it outright; the remaining cases are solved by constrained
minimization (c >= 0), monotone iteration bracketed by upper and lower
solutions (c < 0, s <= 1), or damped Newton continuation. A bisection driver
estimates the negative-c solvability threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq, minimize

from .errors import (
    CertificateUnsolvable,
    InfeasibleStart,
    MonotonicityViolation,
    MultiplierSignError,
    NotAnUpperSolution,
    NotSolved,
    SingularSystem,
    ThresholdIsMinusInfinity,
)
from .fractional import FractionalOperator, build_operator, dirichlet_energy
from .graph import as_function, function_document, integral, mean
from .spectral import decompose

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
REGIME_DEPENDENT = "regime-dependent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class KWProblem:
    """Equation data: graph, exponent s > 0, constant c, weight kappa."""

    graph: object
    s: float
    c: float
    kappa: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"s must be a positive real, got {self.s}")
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")
        object.__setattr__(self, "kappa", as_function(self.graph, self.kappa))


@dataclass
class SolveOptions:
    """Tolerances and caps for the solve routes; all CLI-configurable."""

    tol: float = 1e-8
    step_tol: float = 1e-10
    max_iter_monotone: int = 10_000
    max_iter_newton: int = 200
    max_iter_descent: int = 800
    newton_restarts: int = 8
    seed: int = 0
    method: str = "auto"
    override_screen: bool = False


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of pure sign analysis; each reason cites one criterion."""

    status: str
    reasons: tuple

    def to_dict(self):
        return {"status": self.status, "reasons": list(self.reasons)}


@dataclass
class SolveReport:
    solution: np.ndarray | None
    residual_inf: float
    method: str
    iterations: int
    energy: float | None
    verdict: FeasibilityVerdict | None = None

    def to_dict(self, graph=None):
        sol = None
        if self.solution is not None and graph is not None:
            sol = function_document(graph, self.solution)
        elif self.solution is not None:
            sol = [float(v) for v in self.solution]
        return {
            "solution": sol,
            "residual_inf": self.residual_inf,
            "method": self.method,
            "iterations": self.iterations,
            "energy": self.energy,
            "verdict": self.verdict.to_dict() if self.verdict else None,
        }


@dataclass(frozen=True)
class ResidualReport:
    residual_inf: float
    slack_min: float
    slack_max: float
    integral_defect: float

    def to_dict(self):
        return {
            "residual_inf": self.residual_inf,
            "slack_min": self.slack_min,
            "slack_max": self.slack_max,
            "integral_defect": self.integral_defect,
        }


@dataclass
class ThresholdEstimate:
    """Bracket around the negative-c solvability threshold.

    c_high carries a verified solution; c_low is the highest probe where every
    solve route failed (operational, not a mathematical certificate). When
    cap_reached is set the probe budget ran out first: the probe log records
    what was actually established and c_low may be an unprobed candidate.
    """

    c_low: float
    c_high: float
    width: float
    attained_solution_at_threshold: np.ndarray | None
    probes: tuple = field(default_factory=tuple)
    cap_reached: bool = False

    def to_dict(self, graph=None):
        sol = None
        if self.attained_solution_at_threshold is not None and graph is not None:
            sol = function_document(graph, self.attained_solution_at_threshold)
        return {
            "c_low": self.c_low,
            "c_high": self.c_high,
            "width": self.width,
            "attained_solution_at_threshold": sol,
            "probes": [{"c": c, "solved": ok} for c, ok in self.probes],
            "cap_reached": self.cap_reached,
        }


# ---------------------------------------------------------------------------
# screening


def screen(p):
    """Classify solvability from the signs of (c, kappa) alone.

    The strong if-and-only-if clauses apply for s <= 1; for s > 1 only the
    weaker sufficient clauses are cited and everything else is reported
    unknown.
    """
    kappa = p.kappa
    c = p.c
    kmax = float(np.max(kappa))
    kmin = float(np.min(kappa))
    kint = integral(p.graph, kappa)
    strong = p.s <= 1.0

    if c > 0:
        if kmax > 0:
            return FeasibilityVerdict(SOLVABLE, (
                "c > 0 and kappa is positive somewhere (if-and-only-if criterion for positive c)",
            ))
        return FeasibilityVerdict(UNSOLVABLE, (
            "c > 0 but kappa is nowhere positive (positive-c criterion fails)",
        ))

    if c == 0:
        if kmax == 0 and kmin == 0:
            return FeasibilityVerdict(SOLVABLE, (
                "c = 0 with kappa identically zero: every constant function solves",
            ))
        changes_sign = kmax > 0 and kmin < 0
        if changes_sign and kint < 0:
            return FeasibilityVerdict(SOLVABLE, (
                "c = 0 with sign-changing kappa of negative integral (zero-c criterion)",
            ))
        if strong:
            return FeasibilityVerdict(UNSOLVABLE, (
                "c = 0 requires kappa to change sign and have negative integral "
                "(zero-c criterion fails)",
            ))
        return FeasibilityVerdict(UNKNOWN, (
            "c = 0 for s > 1: the sufficient clause does not apply and no converse is available",
        ))

    # c < 0
    if strong:
        if kint >= 0:
            return FeasibilityVerdict(UNSOLVABLE, (
                "c < 0 requires the integral of kappa to be negative (necessary condition fails)",
            ))
        if kmax <= 0:
            return FeasibilityVerdict(SOLVABLE, (
                "c < 0 with kappa nonpositive everywhere and negative integral: "
                "solvable for every c < 0",
            ))
        return FeasibilityVerdict(REGIME_DEPENDENT, (
            "c < 0 with sign-changing kappa: solvability depends on the threshold constant",
        ))
    if kmax < 0:
        return FeasibilityVerdict(SOLVABLE, (
            "c < 0 with kappa negative everywhere (high-order sufficient clause)",
        ))
    return FeasibilityVerdict(UNKNOWN, (
        "c < 0 for s > 1 without everywhere-negative kappa: no clause applies",
    ))


# ---------------------------------------------------------------------------
# shared numerics


def _constraint_mass(g, kappa, u):
    """integral(kappa e^u). Where e^u overflows the mass is infinite, or NaN
    when kappa has both signs there; either is returned without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(kappa * np.exp(u), g.mu))


def _residual(op, kappa, c, u):
    with np.errstate(over="ignore", invalid="ignore"):
        return op.op_matrix @ u - kappa * np.exp(u) + c


def check_solution(p, u, op=None):
    """Independent residual bookkeeping for a candidate solution."""
    op = _ensure_operator(p, op)
    u = as_function(p.graph, u)
    r = _residual(op, p.kappa, p.c, u)
    with np.errstate(over="ignore"):
        ke = p.kappa * np.exp(u)
    defect = abs(integral(p.graph, ke) - p.c * p.graph.volume)
    return ResidualReport(
        residual_inf=float(np.max(np.abs(r))),
        slack_min=float(np.min(r)),
        slack_max=float(np.max(r)),
        integral_defect=float(defect),
    )


def _ensure_operator(p, op):
    if op is None:
        return build_operator(decompose(p.graph), p.s)
    if not isinstance(op, FractionalOperator) or op.graph is not p.graph:
        raise ValueError("operator does not belong to the problem graph")
    return op


def _damped_newton(op, kappa, c, u0, opts, target=None):
    """Damped Newton on F(u) = op u - kappa e^u + c with a sum-of-squares
    line search. Returns (u, iterations, converged_to_target)."""
    u = np.array(u0, dtype=float)
    target = target if target is not None else max(1e-13, 1e-3 * opts.tol)
    a_mat = op.op_matrix
    r = _residual(op, kappa, c, u)
    with np.errstate(over="ignore"):
        phi = 0.5 * float(r @ r)
    stalls = 0
    for it in range(opts.max_iter_newton):
        rinf = float(np.max(np.abs(r)))
        if rinf <= target:
            return u, it, True
        with np.errstate(over="ignore"):
            jac = a_mat - np.diag(kappa * np.exp(u))
        try:
            step = np.linalg.solve(jac, -r)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                return u, it, rinf <= opts.tol
        t = 1.0
        accepted = False
        while t >= 1e-12:
            cand = u + t * step
            rc = _residual(op, kappa, c, cand)
            if np.all(np.isfinite(rc)):
                with np.errstate(over="ignore"):
                    phic = 0.5 * float(rc @ rc)
                if phic <= phi * (1.0 - 1e-4 * t) or phic < phi:
                    # count barely-moving accepts; crawling near a fold is failure
                    stalls = stalls + 1 if phic > phi * (1.0 - 1e-10) else 0
                    u, r, phi = cand, rc, phic
                    accepted = True
                    break
            t *= 0.5
        if not accepted or stalls >= 3:
            return u, it + 1, float(np.max(np.abs(r))) <= opts.tol
    return u, opts.max_iter_newton, float(np.max(np.abs(r))) <= opts.tol


def _newton_attempts(op, kappa, c, starts, opts, rng):
    n = op.graph.n
    starts = list(starts)
    for _ in range(opts.newton_restarts):
        starts.append(rng.normal(scale=1.0, size=n))

    total = 0
    for u0 in starts:
        u, its, ok = _damped_newton(op, kappa, c, u0, opts)
        total += its
        if ok:
            return u, total
    return None, total


# ---------------------------------------------------------------------------
# linear building blocks


def resolvent_solve(g, op, phi, f):
    """Solve ((-Delta)^s + diag(phi)) u = f for strictly positive phi.

    The system is symmetric positive definite in the mu-inner product, so a
    Cholesky solve applies. Order preserving: f <= g implies u_f <= u_g.
    """
    phi = as_function(g, phi)
    f = as_function(g, f)
    if np.min(phi) <= 0:
        raise ValueError("phi must be strictly positive everywhere")
    sym = g.mu[:, None] * op.op_matrix + np.diag(g.mu * phi)
    sym = 0.5 * (sym + sym.T)
    try:
        factor = scipy.linalg.cho_factor(sym)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"resolvent system not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, g.mu * f)


def poisson_meanzero_solve(op, f):
    """Unique mean-zero solution of (-Delta)^s u = f - mean(f).

    Spectral pseudoinverse: u = sum_{i >= 2} <f, phi_i> / lambda_i^s phi_i.
    """
    sd = op.sd
    f = as_function(sd.graph, f)
    coeffs = sd.coefficients(f)
    return sd.synthesize(coeffs * sd.lambda_power(-op.s))


def auxiliary_phi0(p, op=None):
    """Solve ((-Delta)^s - c) phi = -kappa for c < 0.

    The unique solution dominates exp(-u_c) pointwise whenever u_c solves the
    full equation at the same c; tests exercise that comparison.
    """
    if p.c >= 0:
        raise ValueError("auxiliary comparison function needs c < 0")
    op = _ensure_operator(p, op)
    shift = np.full(p.graph.n, -p.c)
    return resolvent_solve(p.graph, op, shift, -p.kappa)


# ---------------------------------------------------------------------------
# c > 0: constrained minimization via the logarithmic shift


def solve_positive_c(p, opts=None, op=None):
    """Minimize the energy functional over the positive-c constraint set.

    The constraint integral(kappa e^u) = c |V| is eliminated exactly by the
    shift u = v + log(c |V| / integral(kappa e^v)), leaving an unconstrained
    objective in v (plus a quadratic penalty pinning the free additive
    constant). Quasi-Newton descent is followed by a Newton polish on the
    reduced gradient; the Euler-Lagrange residual is verified at the end.
    """
    opts = opts or SolveOptions()
    if p.c <= 0:
        raise ValueError("positive-c route requires c > 0")
    op = _ensure_operator(p, op)
    g = p.graph
    kappa, c, mu, vol = p.kappa, p.c, g.mu, g.volume
    ua = mu[:, None] * op.op_matrix
    ua = 0.5 * (ua + ua.T)

    def objective(v):
        mass = _constraint_mass(g, kappa, v)
        if not np.isfinite(mass) or mass <= 0:
            return np.inf, np.zeros_like(v)
        iv = float(np.dot(v, mu))
        val = (
            0.5 * float(v @ (ua @ v))
            + c * (iv + vol * math.log(c * vol / mass))
            + 0.5 * iv * iv
        )
        q = kappa * np.exp(v) * mu
        grad = ua @ v + c * mu - (c * vol / mass) * q + iv * mu
        return val, grad

    v0 = _positive_start(p, opts)
    res = minimize(
        objective, v0, jac=True, method="L-BFGS-B",
        options={"maxiter": opts.max_iter_descent, "ftol": 1e-18, "gtol": 1e-12},
    )
    v = res.x
    iterations = int(res.nit)

    # Newton polish on the reduced stationarity system
    scale = 1.0 + abs(c) * vol
    for _ in range(40):
        _, grad = objective(v)
        ginf = float(np.max(np.abs(grad)))
        if ginf <= 1e-13 * scale:
            break
        mass = _constraint_mass(g, kappa, v)
        q = kappa * np.exp(v) * mu
        hess = (
            ua
            - (c * vol) * (np.diag(q) / mass - np.outer(q / mass, q / mass))
            + np.outer(mu, mu)
        )
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
        t = 1.0
        while t >= 1e-12:
            cand_val, cand_grad = objective(v + t * step)
            if np.isfinite(cand_val) and float(np.max(np.abs(cand_grad))) < ginf:
                v = v + t * step
                break
            t *= 0.5
        else:
            break
        iterations += 1

    mass = _constraint_mass(g, kappa, v)
    if not np.isfinite(mass) or mass <= 0:
        raise NotSolved("positive-c descent left the feasible region")
    u = v + math.log(c * vol / mass)
    residual = check_solution(p, u, op).residual_inf
    if residual > opts.tol:
        raise NotSolved(
            f"positive-c minimization stagnated at residual {residual:.3e}",
            trace=["variational-positive-c"],
        )
    energy = 0.5 * dirichlet_energy(op, u) + c * integral(g, u)
    return SolveReport(
        solution=u,
        residual_inf=residual,
        method="variational-positive-c",
        iterations=iterations,
        energy=float(energy),
    )


def _positive_start(p, opts):
    """Find v with integral(kappa e^v) > 0; exists whenever max kappa > 0."""
    g = p.graph
    kappa, mu = p.kappa, g.mu
    if float(np.dot(kappa, mu)) > 0:
        return np.zeros(g.n)
    best = int(np.argmax(kappa))
    if kappa[best] <= 0:
        raise InfeasibleStart("kappa is nowhere positive; constraint set is empty")
    rest = float(np.dot(kappa, mu)) - kappa[best] * mu[best]
    beta = math.log((1.0 + abs(rest)) / (kappa[best] * mu[best])) + 1.0
    if beta < 700.0:
        v = np.zeros(g.n)
        v[best] = beta
        return v
    rng = np.random.default_rng(opts.seed)
    for _ in range(32):
        v = rng.normal(scale=2.0, size=g.n)
        if float(np.dot(kappa * np.exp(v), mu)) > 0:
            return v
    raise InfeasibleStart("no starting point with positive constraint mass found")


# ---------------------------------------------------------------------------
# c = 0: minimization on the two-constraint manifold


def solve_zero_c(p, opts=None, op=None):
    """Minimize the fractional Dirichlet energy subject to
    integral(u) = 0 and integral(kappa e^u) = 0, then shift by the
    Euler-Lagrange multiplier.

    Projected descent keeps the iterate exactly feasible: the step is
    projected onto the tangent space of both constraints and a scalar
    correction along a transversal bump direction restores the nonlinear
    constraint after each move. The multiplier must come out positive; the
    final answer is u0 + log(multiplier), polished by damped Newton.
    """
    opts = opts or SolveOptions()
    if p.c != 0:
        raise ValueError("zero-c route requires c == 0")
    op = _ensure_operator(p, op)
    g = p.graph
    kappa, mu = p.kappa, g.mu
    if float(np.max(kappa)) <= 0 or float(np.min(kappa)) >= 0:
        raise InfeasibleStart("constraint set empty: kappa must change sign")

    bump = _meanzero_bump(g, kappa)
    u = _zero_c_feasible_start(g, kappa, bump)
    a_mat = op.op_matrix

    def energy(w):
        return 0.5 * float(np.dot(w * mu, a_mat @ w))

    iterations = 0
    step = 1.0
    stalled = 0
    for _ in range(opts.max_iter_descent):
        grad = a_mat @ u  # gradient in the mu-inner product
        direction = -_project_tangent(g, grad, kappa, u)
        ginf = float(np.max(np.abs(direction)))
        if ginf <= 1e-10 * (1.0 + float(np.max(np.abs(grad)))):
            break
        e0 = energy(u)
        slope = float(np.dot(direction * mu, grad))
        t = min(4.0 * step, 1.0)  # warm-started line search
        moved = False
        while t >= 1e-14:
            cand = u + t * direction
            cand = _restore_constraint(g, kappa, cand, bump)
            if cand is not None and energy(cand) <= e0 + 1e-4 * t * slope:
                u = cand
                step = t
                moved = True
                break
            t *= 0.5
        iterations += 1
        if not moved:
            break
        stalled = stalled + 1 if energy(u) > e0 * (1.0 - 1e-12) else 0
        if stalled >= 5:
            break  # the Newton polish finishes from here

    theta = energy(u)
    with np.errstate(over="ignore"):
        denom = integral(g, kappa * u * np.exp(u))
    if denom == 0:
        raise MultiplierSignError("multiplier denominator vanished (false convergence)")
    multiplier = 2.0 * theta / denom
    if multiplier <= 0:
        raise MultiplierSignError(
            f"Euler-Lagrange multiplier {multiplier:.3e} <= 0 (false convergence)"
        )
    shifted = u + math.log(multiplier)

    polished, extra, ok = _damped_newton(op, kappa, 0.0, shifted, opts)
    iterations += extra
    candidate = polished if ok else shifted
    residual = check_solution(p, candidate, op).residual_inf
    if residual > opts.tol:
        raise NotSolved(
            f"zero-c minimization stagnated at residual {residual:.3e}",
            trace=["variational-zero-c"],
        )
    return SolveReport(
        solution=candidate,
        residual_inf=residual,
        method="variational-zero-c",
        iterations=iterations,
        energy=0.5 * dirichlet_energy(op, candidate),
    )


def _meanzero_bump(g, kappa):
    # direction raising the constraint mass at the most negative kappa vertex
    lo = int(np.argmin(kappa))
    hi = int(np.argmax(kappa))
    z = np.zeros(g.n)
    z[lo] = 1.0
    z[hi] = -g.mu[lo] / g.mu[hi]
    return z


def _zero_c_feasible_start(g, kappa, bump):
    def h(t):
        return _constraint_mass(g, kappa, t * bump)

    if h(0.0) == 0.0:
        return np.zeros(g.n)
    # h(0) = integral(kappa) < 0 and h -> +inf along -bump
    lo = -1.0
    while h(lo) <= 0:
        lo *= 2.0
        if lo < -700:
            raise InfeasibleStart("could not bracket a feasible starting point")
    t_star = brentq(h, lo, 0.0, xtol=1e-14)
    return t_star * bump


def _project_tangent(g, vec, kappa, u):
    """Project vec (mu-orthogonally) onto the tangent of both constraints."""
    mu = g.mu
    with np.errstate(over="ignore"):
        b = kappa * np.exp(u)
    ones = np.ones(g.n)

    def inner(a, bb):
        return float(np.dot(a * mu, bb))

    out = vec - (inner(vec, ones) / inner(ones, ones)) * ones
    b_perp = b - (inner(b, ones) / inner(ones, ones)) * ones
    nb = inner(b_perp, b_perp)
    if nb > 0:
        out = out - (inner(out, b_perp) / nb) * b_perp
    return out


def _restore_constraint(g, kappa, u, bump):
    """One-dimensional correction along the bump until the e^u constraint holds.

    The bump raises u at the most negative kappa vertex, so the constraint
    mass tends to -inf along +bump and +inf along -bump; a sign-changing
    bracket always exists unless the required shift overflows.
    """
    def h(beta):
        return _constraint_mass(g, kappa, u + beta * bump)

    h0 = h(0.0)
    if h0 == 0.0:
        return u
    if h0 > 0:
        lo, hi = 0.0, 1.0
        while h(hi) > 0:
            hi *= 2.0
            if hi > 500.0:
                return None
    else:
        lo, hi = -1.0, 0.0
        while h(lo) < 0:
            lo *= 2.0
            if lo < -500.0:
                return None
    beta = brentq(h, lo, hi, xtol=1e-14)
    out = u + beta * bump
    # mean removal is free: scaling e^u by a constant preserves a zero mass
    return out - mean(g, out)


# ---------------------------------------------------------------------------
# c < 0: upper and lower solutions, monotone iteration


def construct_upper_solution(p, opts=None, op=None):
    """Build a function with nonnegative equation slack for c < 0, or None.

    Nonpositive kappa with negative integral admits the explicit affine
    construction a*v + b over the mean-zero solve of kappa; otherwise Newton
    continuation walks from c/2 down to c, and any solution at lower c serves
    as an upper solution at c. Absent is a valid outcome.
    """
    opts = opts or SolveOptions()
    if p.c >= 0:
        raise ValueError("upper solutions are built for c < 0 only")
    op = _ensure_operator(p, op)
    candidate = _affine_upper_solution(p, op)
    if candidate is not None:
        return candidate
    return _continuation_solution(p, opts, op)


def _affine_upper_solution(p, op):
    """The explicit a*v + b construction; valid when kappa <= 0, kbar < 0."""
    g = p.graph
    kappa, c = p.kappa, p.c
    kbar = mean(g, kappa)
    if float(np.max(kappa)) > 0 or kbar >= 0:
        return None
    v = poisson_meanzero_solve(op, kappa)
    # slack positivity needs a > c/kbar; doubling the larger of the two
    # quotient orderings keeps a safe margin on either side
    a = 2.0 * max(c / kbar, kbar / c)
    b = math.log(a) - a * float(np.min(v)) + 1.0
    candidate = a * v + b
    slack = _residual(op, kappa, c, candidate)
    if float(np.min(slack)) >= 0:
        return candidate
    return None


def _continuation_solution(p, opts, op):
    """Newton continuation from c/2 downward to (slightly past) c."""
    g = p.graph
    kappa, c = p.kappa, p.c
    start_c = c / 2.0
    u = None
    for _ in range(16):
        cand, _, ok = _damped_newton(op, kappa, start_c, np.zeros(g.n), opts)
        if ok:
            u = cand
            break
        start_c /= 2.0
    if u is None:
        rng = np.random.default_rng((opts.seed, 0xC017))
        u, _ = _newton_attempts(op, kappa, c / 2.0, [np.zeros(g.n)], opts, rng)
        start_c = c / 2.0
        if u is None:
            return None

    # overshoot c by a relative margin so the final slack is strictly positive
    target = c * (1.0 + 1e-6)
    cur = start_c
    best = u if cur <= c else None
    step = target - cur  # negative
    failures_in_a_row = 0
    for _ in range(200):
        if cur <= target:
            break
        nxt = max(cur + step, target)
        cand, _, ok = _damped_newton(op, kappa, nxt, u, opts)
        if ok:
            u, cur = cand, nxt
            if cur <= c:
                best = u
            step = target - cur
            failures_in_a_row = 0
        else:
            step *= 0.5
            failures_in_a_row += 1
            # geometric stalling pins a fold between cur and the target
            if abs(step) < abs(c) * 1e-9 or failures_in_a_row >= 12:
                break
    return best


def solve_negative_c_monotone(p, u_plus, opts=None, op=None, trace=None):
    """Monotone iteration from an upper solution down to a solution.

    Each sweep solves the shifted linear system
    ``((-Delta)^s + phi) u_next = phi u + kappa e^u - c`` with
    phi = max(1, -kappa) e^{u_plus}. The sequence is provably nonincreasing
    and bounded below by a constant lower solution; both facts are asserted
    at every step.

    Every iterate is itself an upper solution (the one-step slack identity
    r(u_next) = phi (u - u_next) + kappa (e^u - e^{u_next}) >= 0), so the
    shift is recomputed from the current iterate every block of sweeps;
    that keeps the contraction rate bounded away from one when the starting
    upper solution sits far above the limit. Pass a list as ``trace`` to
    record the iterates.
    """
    opts = opts or SolveOptions()
    if p.c >= 0:
        raise ValueError("monotone iteration requires c < 0")
    op = _ensure_operator(p, op)
    g = p.graph
    kappa, c = p.kappa, p.c
    u_plus = as_function(g, u_plus)

    slack = _residual(op, kappa, c, u_plus)
    slack_scale = 1.0 + float(np.max(np.abs(op.op_matrix @ u_plus))) + abs(c)
    if float(np.min(slack)) < -1e-10 * slack_scale:
        raise NotAnUpperSolution(
            f"upper-solution slack dips to {float(np.min(slack)):.3e}"
        )

    kappa1 = np.maximum(1.0, -kappa)
    lower = _lower_level(kappa, c, u_plus)
    refresh_every = 200

    def factor_for(level):
        phi = kappa1 * np.exp(level)
        sym = g.mu[:, None] * op.op_matrix + np.diag(g.mu * phi)
        sym = 0.5 * (sym + sym.T)
        try:
            return phi, scipy.linalg.cho_factor(sym)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"monotone system not positive definite: {exc}"
            ) from exc

    phi, factor = factor_for(u_plus)
    u = u_plus.copy()
    if trace is not None:
        trace.append(u.copy())
    tol_mono = 1e-12 * (1.0 + float(np.max(np.abs(u_plus))) + abs(lower))
    for it in range(1, opts.max_iter_monotone + 1):
        rhs = g.mu * (phi * u + kappa * np.exp(u) - c)
        u_next = scipy.linalg.cho_solve(factor, rhs)
        if float(np.max(u_next - u)) > tol_mono:
            raise MonotonicityViolation(
                f"iterate increased by {float(np.max(u_next - u)):.3e} at sweep {it}"
            )
        if float(np.min(u_next)) < lower - tol_mono:
            raise MonotonicityViolation(
                f"iterate dropped below the lower solution at sweep {it}"
            )
        step = float(np.max(np.abs(u_next - u)))
        u = u_next
        if trace is not None:
            trace.append(u.copy())
        if step <= opts.step_tol:
            residual = check_solution(p, u, op).residual_inf
            if residual <= opts.tol:
                return SolveReport(
                    solution=u,
                    residual_inf=residual,
                    method="monotone-iteration",
                    iterations=it,
                    energy=None,
                )
            if step == 0.0:
                raise NotSolved(
                    f"monotone fixed point has residual {residual:.3e} > tol",
                    trace=["monotone-iteration"],
                )
        if it % refresh_every == 0:
            phi, factor = factor_for(u)
    raise NotSolved("monotone iteration cap reached", trace=["monotone-iteration"])


def _lower_level(kappa, c, u_plus):
    """Constant level that is a lower solution and sits below u_plus."""
    worst = float(np.max(-kappa))
    need_sign = math.log(worst / (-c)) if worst > 0 else 0.0
    return -(max(need_sign, -float(np.min(u_plus)), 0.0) + 1.0)


# ---------------------------------------------------------------------------
# dispatcher


def solve(p, opts=None, op=None):
    """Solve the equation, routing on the sign of c.

    Screening runs first; a certificate of unsolvability raises
    CertificateUnsolvable unless ``opts.override_screen`` is set. Every
    returned report carries an independently re-verified residual.
    """
    opts = opts or SolveOptions()
    verdict = screen(p)
    if verdict.status == UNSOLVABLE and not opts.override_screen:
        raise CertificateUnsolvable(
            "; ".join(verdict.reasons), verdict=verdict
        )
    op = _ensure_operator(p, op)

    method = opts.method
    if method not in ("auto", "variational", "monotone", "newton"):
        raise ValueError(f"unknown method {method!r}")

    trace = []
    report = None
    if method == "newton":
        report = _newton_route(p, opts, op, trace)
    elif method == "variational":
        if p.c > 0:
            report = solve_positive_c(p, opts, op)
        elif p.c == 0:
            report = _zero_c_route(p, opts, op)
        else:
            raise ValueError("variational route covers c >= 0 only")
    elif method == "monotone":
        if p.c >= 0:
            raise ValueError("monotone route requires c < 0")
        if p.s > 1.0:
            raise ValueError(
                "monotone route is unavailable for s > 1 (no order preservation)"
            )
        report = _monotone_route(p, opts, op, trace)
        if report is None:
            raise NotSolved("monotone route failed", trace=trace)
    else:
        if p.c > 0:
            report = solve_positive_c(p, opts, op)
        elif p.c == 0:
            report = _zero_c_route(p, opts, op)
        else:
            report = _negative_c_route(p, opts, op, trace)

    recheck = check_solution(p, report.solution, op)
    if recheck.residual_inf > opts.tol:
        raise NotSolved(
            f"re-verified residual {recheck.residual_inf:.3e} exceeds tolerance",
            trace=trace + [report.method],
        )
    report.residual_inf = recheck.residual_inf
    report.verdict = verdict
    return report


def _zero_c_route(p, opts, op):
    kappa = p.kappa
    if float(np.max(np.abs(kappa))) == 0.0:
        # every constant solves; pick zero
        return SolveReport(
            solution=np.zeros(p.graph.n),
            residual_inf=0.0,
            method="variational-zero-c",
            iterations=0,
            energy=0.0,
        )
    return solve_zero_c(p, opts, op)


def _monotone_route(p, opts, op, trace):
    try:
        upper = construct_upper_solution(p, opts, op)
    except NotSolved:
        upper = None
    if upper is None:
        trace.append("no upper solution found")
        return None
    return _monotone_from(p, upper, opts, op, trace)


def _monotone_from(p, upper, opts, op, trace):
    try:
        return solve_negative_c_monotone(p, upper, opts, op)
    except (NotSolved, NotAnUpperSolution, MonotonicityViolation) as exc:
        trace.append(f"monotone-iteration: {exc}")
        return None


def _negative_c_route(p, opts, op, trace):
    """c < 0 dispatch: affine upper solution when kappa permits, one shared
    continuation run otherwise, direct Newton as the final fallback."""
    if p.s <= 1.0:
        affine = _affine_upper_solution(p, op)
        if affine is not None:
            report = _monotone_from(p, affine, opts, op, trace)
            if report is not None:
                return report
        cont = _continuation_solution(p, opts, op)
        if cont is not None:
            report = _monotone_from(p, cont, opts, op, trace)
            if report is not None:
                return report
            polished, its, _ = _damped_newton(op, p.kappa, p.c, cont, opts)
            return _newton_report(p, polished, its, opts, op, trace)
        trace.append("continuation found no upper solution")
    return _newton_route(p, opts, op, trace, allow_continuation=p.s > 1.0)


def _newton_report(p, u, iterations, opts, op, trace):
    residual = check_solution(p, u, op).residual_inf
    if residual > opts.tol:
        raise NotSolved(
            f"newton residual {residual:.3e} exceeds tolerance", trace=trace
        )
    return SolveReport(
        solution=u,
        residual_inf=residual,
        method="newton-continuation",
        iterations=iterations,
        energy=None,
    )


def _newton_route(p, opts, op, trace, allow_continuation=True):
    rng = np.random.default_rng((opts.seed, 0x7E57))
    starts = [np.zeros(p.graph.n)]
    u, iterations = _newton_attempts(op, p.kappa, p.c, starts, opts, rng)
    if u is None and p.c < 0 and allow_continuation:
        trace.append("direct Newton failed; trying continuation")
        u = _continuation_solution(p, opts, op)
    if u is None:
        trace.append("newton-continuation: all starts failed")
        raise NotSolved("all solution routes failed", trace=trace)
    return _newton_report(p, u, iterations, opts, op, trace)


# ---------------------------------------------------------------------------
# threshold estimation


def estimate_threshold(g, s, kappa, tol=1e-4, cap=64, opts=None, op=None):
    """Bracket the negative-c solvability threshold by continuation and
    bisection.

    Every probe at some c < 0 attempts monotone iteration (when a solution at
    lower c is on file to serve as an upper solution) and damped Newton with
    warm starts and seeded restarts. Success certifies everything between the
    probe and zero; the final bracket has width <= tol or the probe cap is
    reported.
    """
    opts = opts or SolveOptions()
    kappa = as_function(g, kappa)
    kint = integral(g, kappa)
    if float(np.max(kappa)) <= 0:
        raise ThresholdIsMinusInfinity(
            "kappa <= 0 everywhere: solvable for every c < 0, threshold is -infinity"
        )
    if kint >= 0:
        raise ValueError(
            "threshold undefined: integral(kappa) >= 0 makes every c < 0 unsolvable"
        )
    if tol <= 0:
        raise ValueError("tol must be positive")

    op = op if op is not None else build_operator(decompose(g), s)
    solutions = {}
    failures = set()
    probes = []

    def attempt(c_probe, k):
        prob = KWProblem(graph=g, s=s, c=c_probe, kappa=kappa)
        # monotone with a continuation-supplied upper solution, when available
        below = [cv for cv in solutions if cv <= c_probe]
        if below:
            try:
                rep = solve_negative_c_monotone(
                    prob, solutions[max(below)], opts, op
                )
                return rep.solution
            except (NotSolved, NotAnUpperSolution, MonotonicityViolation):
                pass
        warm = [solutions[cv] for cv in sorted(solutions, key=lambda v: abs(v - c_probe))]
        rng = np.random.default_rng((opts.seed, k))
        u, _ = _newton_attempts(op, kappa, c_probe, warm + [np.zeros(g.n)], opts, rng)
        if u is not None and check_solution(prob, u, op).residual_inf <= opts.tol:
            return u
        return None

    def probe(c_probe):
        if c_probe in solutions:
            return True
        if c_probe in failures:
            return False
        u = attempt(c_probe, len(probes))
        probes.append((c_probe, u is not None))
        if u is not None:
            solutions[c_probe] = u
        else:
            failures.add(c_probe)
        return u is not None

    kbar = kint / g.volume
    c_hi = kbar / 16.0  # negative, close to zero: solvable side
    cap_reached = False

    # find a success moving toward zero
    while not probe(c_hi):
        c_hi /= 2.0
        if len(probes) >= cap:
            cap_reached = True
            break
        if c_hi > -1e-14:
            raise NotSolved(
                "no solvable probe found arbitrarily close to zero", trace=["threshold"]
            )
    if cap_reached:
        raise NotSolved("probe cap exhausted before finding a solvable c", trace=["threshold"])

    # find a failure moving downward
    c_lo = 2.0 * c_hi
    while probe(c_lo):
        c_hi = c_lo
        c_lo *= 2.0
        if len(probes) >= cap:
            cap_reached = True
            break

    # bisection
    while not cap_reached and (c_hi - c_lo) > tol:
        mid = 0.5 * (c_lo + c_hi)
        if probe(mid):
            c_hi = mid
        else:
            c_lo = mid
        if len(probes) >= cap:
            cap_reached = True

    attained = solutions.get(c_hi)
    return ThresholdEstimate(
        c_low=float(c_lo),
        c_high=float(c_hi),
        width=float(c_hi - c_lo),
        attained_solution_at_threshold=attained,
        probes=tuple(probes),
        cap_reached=cap_reached,
    )
