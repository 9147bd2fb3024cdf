"""Solvers for the fractional Kazdan-Warner equation on a finite graph:

    (-Delta)^s u = kappa * exp(u) - c.

Sign screening certifies solvability or unsolvability where the sign of
(c, kappa) decides it outright; the remaining cases run one route: constrained
minimization (c >= 0) or monotone iteration bracketed by upper and lower
solutions (c < 0, s <= 1), then damped Newton where that fails. One stable
walk in c, Newton continuation with a tangent predictor that accepts only
points where the linearization is positive definite, builds the continuation
upper solution and drives the estimate of the negative-c solvability
threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
from .fractional import FractionalOperator, build_operator, dirichlet_energy, split_exponent
from .graph import as_function, check_tol, function_document, integral, mean
from .spectral import decompose

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
REGIME_DEPENDENT = "regime-dependent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class KWProblem:
    """Equation data: graph, exponent s > 0, constant c, weight kappa.

    An s that split_exponent rejects raises its InvalidExponent (a
    ValueError); a non-finite c raises ValueError, and kappa is checked by
    as_function."""

    graph: object
    s: float
    c: float
    kappa: np.ndarray

    def __post_init__(self):
        split_exponent(self.s)
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")
        object.__setattr__(self, "kappa", as_function(self.graph, self.kappa))


_STEP_TOL = 1e-10  # a monotone step this small triggers a residual check
_MAX_ITER_NEWTON = 200  # cap on each damped-Newton run
_NEWTON_RESTARTS = 8  # seeded random starts after the fixed ones
_DESCENT_OPTIONS = {"maxiter": 800, "ftol": 1e-10, "gtol": 1e-4}  # both L-BFGS-B runs
_DRIFT_REL = 1e-3  # a residual above this times the equation's scale is not a solution


@dataclass
class SolveOptions:
    """The settings a caller chooses: ``tol``, the sup-norm residual every
    returned solution is verified to (finite, positive); ``max_iter_monotone``,
    the monotone sweep cap; ``seed``, the nonnegative seed of the restart
    draws; ``method``, "auto", "variational", "monotone" or "newton";
    ``override_screen``, solve even where the screen certifies unsolvable."""

    tol: float = 1e-8
    max_iter_monotone: int = 10_000
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

    def to_dict(self, graph):
        sol = None if self.solution is None else function_document(graph, self.solution)
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
    integral_defect: float


@dataclass
class ThresholdEstimate:
    """Bracket around the negative-c solvability threshold.

    c_high carries a verified solution on the stable branch (mu J positive
    definite); c_low is the probe where the stable walk from c_high failed,
    the fold as the walk finds it, not a certificate that c_low is
    unsolvable. When cap_reached is set the probe log used its whole budget,
    which may have stopped the search early: c_low may then lie more than
    ``tol`` below c_high, or be the unprobed candidate 2 c_high.
    """

    c_low: float
    c_high: float
    width: float
    attained_solution_at_threshold: np.ndarray
    probes: tuple = field(default_factory=tuple)
    cap_reached: bool = False

    def to_dict(self, graph):
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


def _residual(op, kappa, c, u):
    with np.errstate(over="ignore", invalid="ignore"):
        return op.op_matrix @ u - kappa * np.exp(u) + c


def check_solution(p, u, op=None):
    """Independent residual bookkeeping for a candidate solution."""
    op = _ensure_operator(p.graph, p.s, op)
    u = as_function(p.graph, u)
    r = _residual(op, p.kappa, p.c, u)
    with np.errstate(over="ignore", invalid="ignore"):
        ke = p.kappa * np.exp(u)
        defect = abs(float(np.dot(ke, p.graph.mu)) - p.c * p.graph.volume)
    return ResidualReport(
        residual_inf=float(np.max(np.abs(r))),
        slack_min=float(np.min(r)),
        integral_defect=float(defect),
    )


def _equation_scale(op, kappa, c, u):
    """T = ||A u||_inf + ||kappa e^u||_inf + |c|, the size of the equation's
    terms at a u of finite residual, A = op_matrix. A drift toward a constant
    -infinity drives every term, and with them the residual, to zero, so no
    absolute tolerance tells it from a solution; a residual above
    _DRIFT_REL T is not one."""
    terms = np.max(np.abs(op.op_matrix @ u)) + np.max(np.abs(kappa * np.exp(u)))
    return float(terms) + abs(c)


def _verified(p, op, u, method, iterations, opts, energy=None):
    """The one exit of every solve: the report of u if its re-checked residual
    is within opts.tol and small against the equation's scale, else NotSolved
    naming the route and the residual."""
    residual = check_solution(p, u, op).residual_inf
    if not residual <= opts.tol:  # a NaN residual fails too
        message = f"{method} stopped at residual {residual:.3e} > tol {opts.tol:.3e}"
        raise NotSolved(message, trace=[method])
    scale = _equation_scale(op, p.kappa, p.c, u)
    if not residual <= _DRIFT_REL * scale:
        message = (f"{method} drifted: residual {residual:.3e} is not small against "
                   f"the scale {scale:.3e} of the equation's terms")
        raise NotSolved(message, trace=[method])
    return SolveReport(u, residual, method, iterations, energy)


def check_seed(seed):
    """Reject a restart seed that is not a nonnegative Python or NumPy integer."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be nonnegative and an integer, got {seed!r}")


def _ensure_operator(g, s, op):
    """op once it is checked to be the operator of (-Delta)^s on g, or that
    operator built when op is None; s None checks the graph only."""
    if op is None and s is not None:
        return build_operator(decompose(g), s)
    if not isinstance(op, FractionalOperator) or op.graph is not g:
        raise ValueError("operator does not belong to the problem graph")
    if s is not None and op.s != s:
        raise ValueError(f"operator was built for s={op.s}, not s={s}")
    return op


def _newton(fun, solve_step, u0, max_iter, target):
    """Damped Newton on fun(u) = r = 0 by steps solve_step(u, r) and a
    sum-of-squares line search, never accepting a non-finite residual (a start
    with one returns (u0, 0, inf)). A step that is None (a singular system)
    or not finite ends the run where it stands. Returns (u, iterations,
    sup-norm residual)."""
    u = np.array(u0, dtype=float)
    r = fun(u)
    if not np.all(np.isfinite(r)):
        return u, 0, math.inf
    with np.errstate(over="ignore"):
        phi = 0.5 * float(r @ r)
    stalls = 0
    for it in range(max_iter):
        rinf = float(np.max(np.abs(r)))
        if rinf <= target:
            return u, it, rinf
        step = solve_step(u, r)
        if step is None or not np.all(np.isfinite(step)):
            return u, it, rinf
        t = 1.0
        accepted = False
        while t >= 1e-12:
            cand = u + t * step
            rc = fun(cand)
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
            return u, it + 1, float(np.max(np.abs(r)))
    return u, max_iter, float(np.max(np.abs(r)))


def _lu_step(j, r):
    """-j^{-1} r by LU, or None where j is singular."""
    try:
        return np.linalg.solve(j, -r)
    except np.linalg.LinAlgError:
        return None


def _damped_newton(op, kappa, c, u0, opts):
    """_newton on F(u) = op u - kappa e^u + c. Returns (u, iterations,
    converged): converged when the residual reached the Newton target or
    is within opts.tol. At c < 0 a step solves (mu J) step = -mu r by
    _shifted_cholesky (mu J has form -integral(kappa e^u) = -c |V| > 0 on
    constants at a solution); where that fails, and at c >= 0, by LU. A
    singular LU system ends the run unconverged."""
    g = op.graph

    def solve_step(u, r):
        ke = kappa * np.exp(u)  # finite, as the residual r is
        if c < 0:
            chol_solve = _shifted_cholesky(g, op, -ke)
            if chol_solve is not None:
                return chol_solve(-g.mu * r)
        j = op.op_matrix.copy()
        j.flat[:: g.n + 1] -= ke
        return _lu_step(j, r)

    target = max(1e-13, 1e-3 * opts.tol)
    u, its, rinf = _newton(
        lambda u: _residual(op, kappa, c, u), solve_step, u0, _MAX_ITER_NEWTON, target
    )
    return u, its, rinf <= max(target, opts.tol)


def _seeded_restarts(op, rng):
    for _ in range(_NEWTON_RESTARTS):
        yield rng.normal(scale=1.0, size=op.graph.n)


def _newton_attempts(op, kappa, c, starts, opts):
    """Damped Newton at c from each start in turn, drawn lazily; the first
    converged run whose residual is small against the equation's scale wins,
    so a drift does not stop the search. Returns (u or None, total
    iterations)."""
    total = 0
    for u0 in starts:
        u, its, ok = _damped_newton(op, kappa, c, u0, opts)
        total += its
        if ok:
            residual = float(np.max(np.abs(_residual(op, kappa, c, u))))
            if residual <= _DRIFT_REL * _equation_scale(op, kappa, c, u):
                return u, total
    return None, total


# ---------------------------------------------------------------------------
# linear building blocks


def resolvent_solve(g, op, phi, f):
    """Solve ((-Delta)^s + diag(phi)) u = f for strictly positive phi.

    The system is symmetric positive definite in the mu-inner product, so a
    Cholesky solve applies. Order preserving: f <= g implies u_f <= u_g.
    """
    op = _ensure_operator(g, None, op)
    phi = as_function(g, phi)
    f = as_function(g, f)
    if np.min(phi) <= 0:
        raise ValueError("phi must be strictly positive everywhere")
    chol_solve = _shifted_cholesky(g, op, phi)
    if chol_solve is None:
        raise SingularSystem("resolvent system not positive definite")
    return chol_solve(g.mu * f)


def _shifted_cholesky(g, op, phi):
    """The solve b -> X^{-1} b by the Cholesky factor of X = diag(mu)
    ((-Delta)^s + diag(phi)), symmetrized: the energy matrix plus
    diag(mu phi), from one copy of it, or None where X is not positive
    definite. Damped Newton at c < 0 passes phi = -kappa e^u, making X mu
    times the Jacobian. Both LAPACK calls are looked up on scipy.linalg at
    call time, so a wrapper set there sees every one."""
    import scipy.linalg  # imported on first use: it slows `import fraclap`
    # the energy matrix is exactly symmetric, so its transpose is the same
    # matrix in the column-major layout LAPACK factors in place, uncopied
    sym = op.energy_matrix.T.copy(order="K")
    with np.errstate(over="ignore"):
        sym.flat[:: g.n + 1] += g.mu * phi
    try:
        factor = scipy.linalg.cho_factor(sym, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError):  # ValueError: an overflowed shift
        return None
    return lambda b: scipy.linalg.cho_solve(factor, b)


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
    op = _ensure_operator(p.graph, p.s, op)
    shift = np.full(p.graph.n, -p.c)
    return resolvent_solve(p.graph, op, shift, -p.kappa)


# ---------------------------------------------------------------------------
# c > 0: constrained minimization via the logarithmic shift


def solve_positive_c(p, opts=None, op=None):
    """Minimize the energy functional over the positive-c constraint set.

    The constraint integral(kappa e^u) = c |V| is eliminated exactly by the
    shift u = v + log(c |V| / integral(kappa e^v)), leaving an unconstrained
    objective in v (plus a quadratic penalty pinning the free additive
    constant). The objective is evaluated in log space, so no e^v is formed
    unscaled. Quasi-Newton descent is followed by a Newton polish on the
    reduced gradient, then, if the residual is still above tol (small c), by
    damped Newton on the equation; the result leaves through _verified.
    """
    from scipy.optimize import minimize  # imported on first use: it slows `import fraclap`
    opts = opts or SolveOptions()
    if p.c <= 0:
        raise ValueError("positive-c route requires c > 0")
    op = _ensure_operator(p.graph, p.s, op)
    g = p.graph
    kappa, c, mu, vol = p.kappa, p.c, g.mu, g.volume
    cv = c * vol
    ua = op.energy_matrix

    def log_mass(v):
        """(log integral(kappa e^v), weights kappa mu e^v / integral), or
        None where the mass is not positive."""
        vmax = float(np.max(v))
        q = kappa * mu * np.exp(v - vmax)
        total = float(np.sum(q))
        if not total > 0:
            return None
        return vmax + math.log(total), q / total

    def objective(v):
        lm = log_mass(v)
        if lm is None:
            return np.inf, np.zeros_like(v)
        log_m, w = lm
        av = ua @ v
        iv = float(np.dot(v, mu))
        val = 0.5 * float(v @ av) + c * (iv + vol * (math.log(cv) - log_m))
        return val + 0.5 * iv * iv, av + (c + iv) * mu - cv * w

    def gradient(v):
        # infinite off the feasible set, so the polish never steps there
        val, grad = objective(v)
        return grad if np.isfinite(val) else np.full_like(v, np.inf)

    def polish_step(v, r):
        w = log_mass(v)[1]
        return _lu_step(ua - cv * (np.diag(w) - np.outer(w, w)) + np.outer(mu, mu), r)

    res = minimize(
        objective, _positive_start(p), jac=True, method="L-BFGS-B", options=_DESCENT_OPTIONS
    )
    if log_mass(res.x) is None:
        raise NotSolved("positive-c descent left the feasible region")
    v, extra, _ = _newton(gradient, polish_step, res.x, 40, 1e-13 * (1.0 + cv))
    iterations = int(res.nit) + extra
    u = v + (math.log(cv) - log_mass(v)[0])
    if not np.all(np.isfinite(u)):  # c |V| overflowed, so the shift did
        raise NotSolved("positive-c candidate is not finite")
    if check_solution(p, u, op).residual_inf > opts.tol:
        polished, extra, ok = _damped_newton(op, kappa, c, u, opts)
        iterations += extra
        u = polished if ok else u
    energy = 0.5 * dirichlet_energy(op, u) + c * integral(g, u)
    return _verified(p, op, u, "variational-positive-c", iterations, opts, float(energy))


def _positive_start(p):
    """Find v with integral(kappa e^v) > 0; exists whenever max kappa > 0.
    Any spike height is safe, since the objective works in log space."""
    g = p.graph
    kappa, mu = p.kappa, g.mu
    v = np.zeros(g.n)
    if float(np.dot(kappa, mu)) > 0:
        return v
    best = int(np.argmax(kappa))
    if kappa[best] <= 0:
        raise InfeasibleStart("kappa is nowhere positive; constraint set is empty")
    rest = float(np.dot(kappa, mu)) - kappa[best] * mu[best]
    with np.errstate(over="ignore", divide="ignore"):
        ratio = (1.0 + abs(rest)) / (kappa[best] * mu[best])
    # a ratio overflowed by a subnormal kappa mu is taken apart in logs
    v[best] = 1.0 + (math.log(ratio) if ratio < math.inf else
                     math.log1p(abs(rest)) - math.log(kappa[best]) - math.log(mu[best]))
    return v


# ---------------------------------------------------------------------------
# c = 0: minimization on the two-constraint manifold


def solve_zero_c(p, opts=None, op=None):
    """Minimize the fractional Dirichlet energy subject to
    integral(u) = 0 and integral(kappa e^u) = 0, then shift by the
    Euler-Lagrange multiplier.

    Quasi-Newton descent, as for c > 0, minimizes F(v) = w^T S w / 2 with
    w = _restore_constraint(v) on the constraint set and S the energy
    matrix. Its gradient S w - (b^T S w / q^T b) q, with the bump b and
    q = kappa mu e^{w - max w}, carries the implicit derivative of the bump
    coefficient; mean removal drops out since S 1 = 0. The multiplier must
    come out positive; the final answer is u0 + log(multiplier), polished
    by damped Newton and returned through _verified.
    """
    from scipy.optimize import minimize  # imported on first use: it slows `import fraclap`
    opts = opts or SolveOptions()
    if p.c != 0:
        raise ValueError("zero-c route requires c == 0")
    op = _ensure_operator(p.graph, p.s, op)
    g = p.graph
    kappa, mu = p.kappa, g.mu
    if not np.any(kappa):
        # every constant solves, and every mean-zero u meets the constraints
        return _verified(p, op, np.zeros(g.n), "variational-zero-c", 0, opts, 0.0)
    if float(np.max(kappa)) <= 0 or float(np.min(kappa)) >= 0:
        raise InfeasibleStart("constraint set empty: kappa must change sign")

    bump = _meanzero_bump(g, kappa)
    ua = op.energy_matrix

    def objective(v):
        w = _restore_constraint(g, kappa, v, bump)
        sw = ua @ w
        q = kappa * mu * np.exp(w - np.max(w))
        grad = sw - (float(bump @ sw) / float(q @ bump)) * q
        return 0.5 * float(w @ sw), grad

    res = minimize(
        objective, np.zeros(g.n), jac=True, method="L-BFGS-B", options=_DESCENT_OPTIONS
    )
    u = _restore_constraint(g, kappa, res.x, bump)
    iterations = int(res.nit)

    theta = 0.5 * float(u @ ua @ u)
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
    energy = 0.5 * dirichlet_energy(op, candidate)
    return _verified(p, op, candidate, "variational-zero-c", iterations, opts, energy)


def _meanzero_bump(g, kappa):
    # direction raising the constraint mass at the most negative kappa vertex
    lo = int(np.argmin(kappa))
    hi = int(np.argmax(kappa))
    z = np.zeros(g.n)
    z[lo] = 1.0
    z[hi] = -g.mu[lo] / g.mu[hi]
    return z


def _restore_constraint(g, kappa, u, bump):
    """Map u onto integral(u) = 0, integral(kappa e^u) = 0: the unique
    u + beta bump that balances the mass, then mean removal.

    The bump raises u at the most negative kappa vertex and lowers it at the
    most positive one, so integral(kappa e^u) falls strictly from + to -
    along +bump and a doubling bracket always finds the root. The root is
    sought on the mass relative to e^{max}, which has the same sign and
    never overflows.
    """
    from scipy.optimize import brentq  # imported on first use: it slows `import fraclap`

    def h(beta):
        w = u + beta * bump
        return float(np.dot(kappa * np.exp(w - np.max(w)), g.mu))

    lo, hi = (0.0, 1.0) if h(0.0) > 0 else (-1.0, 0.0)
    while h(hi) > 0:
        hi *= 2.0
    while h(lo) < 0:
        lo *= 2.0
    out = u + brentq(h, lo, hi, xtol=1e-14) * bump
    # mean removal is free: scaling e^u by a constant preserves a zero mass
    return out - mean(g, out)


# ---------------------------------------------------------------------------
# c < 0: upper and lower solutions, monotone iteration


def construct_upper_solution(p, opts=None, op=None):
    """Build a function with nonnegative equation slack for c < 0, or None.

    Nonpositive kappa with negative integral admits the explicit affine
    construction a*v + b over the mean-zero solve of kappa; otherwise the
    stable walk goes from near c/2 down to c, and any solution at lower c
    serves as an upper solution at c. Absent is a valid outcome.
    """
    opts = opts or SolveOptions()
    if p.c >= 0:
        raise ValueError("upper solutions are built for c < 0 only")
    op = _ensure_operator(p.graph, p.s, op)
    return next(_upper_solutions(p, opts, op, _affine_upper_solution(p, op)), None)


def _upper_solutions(p, opts, op, affine):
    """Upper solutions for c < 0, cheapest first: ``affine`` unless None,
    then the continuation point, built only once ``affine`` is consumed."""
    if affine is not None:
        yield affine
    continued = _continuation_solution(p, opts, op)
    if continued is not None:
        yield continued


def _affine_upper_solution(p, op):
    """The explicit a*v + b construction; valid when kappa <= 0, kbar < 0."""
    g = p.graph
    kappa, c = p.kappa, p.c
    kbar = mean(g, kappa)
    if float(np.max(kappa)) > 0 or kbar >= 0:
        return None
    v = poisson_meanzero_solve(op, kappa)
    # kappa <= 0 and e^(a v + b) >= a e give slack >= -a kbar + c = -c > 0
    a = 2.0 * c / kbar
    b = math.log(a) - a * float(np.min(v)) + 1.0
    candidate = a * v + b
    slack = _residual(op, kappa, c, candidate)
    # an overflowed exp gives infinite slack, and an infinite monotone shift
    if np.all(np.isfinite(slack)) and float(np.min(slack)) >= 0:
        return candidate
    return None


def _continuation_solution(p, opts, op):
    """The stable walk from near c/2 down to (slightly past) c: the last
    solution at or below c, or None."""
    start = _stable_start(op, p.kappa, p.c / 2.0, opts)
    if start is None:
        return None
    # overshoot c by a relative margin so the final slack is strictly positive
    c_end, u, _ = _stable_walk(op, p.kappa, start, p.c * (1.0 + 1e-6), opts,
                               abs(p.c) * 1e-9, [], math.inf)
    return u if c_end <= p.c else None


def _stable_point(op, kappa, c, u0, opts):
    """Damped Newton at c < 0 from u0, accepted only where mu J = energy
    matrix - diag(mu kappa e^u) is positive definite (Morse index 0), as at
    the maximal solution of upper and lower solutions. Returns (u, du/dc),
    from (mu J) du/dc = -mu on that factor, or None."""
    u, _, ok = _damped_newton(op, kappa, c, u0, opts)
    # a converged run has a finite residual, so e^u does not overflow
    chol_solve = _shifted_cholesky(op.graph, op, -kappa * np.exp(u)) if ok else None
    if chol_solve is None:
        return None
    return u, chol_solve(-op.graph.mu)


def _stable_start(op, kappa, c, opts):
    """Where the stable walk toward c < 0 starts: the first (c_k, u, du/dc)
    with c_k = c / 2^k, k = 0, ..., 15, that Newton solves stably from the
    constant log(c_k / kbar), the limit of the stable branch as c -> 0-.
    None when kbar >= 0 or every start fails."""
    kbar = mean(op.graph, kappa)
    if kbar >= 0:
        return None
    for k in range(16):
        ck = c / 2.0**k
        point = _stable_point(op, kappa, ck, np.full(op.graph.n, math.log(ck / kbar)), opts)
        if point is not None:
            return (ck, *point)
    return None


def _stable_walk(op, kappa, start, target, opts, tol, probes, cap):
    """Continuation in c along the stable branch from ``start`` = (c, u,
    du/dc) down to target < c, each run from the tangent predictor.

    The first step goes to 2c and the step doubles after each success;
    after the first failure the walk bisects between the last solution and
    the last failure. It stops at the
    target, once those are at most tol apart or adjacent doubles, or once
    ``probes``, which gets (c', solved) for every run, holds ``cap`` entries.
    Returns the last solved (c, u) and the last failed c, or None.
    """
    c, u, tangent = start
    step, failed = c, None
    while c > target and len(probes) < cap:
        if failed is None:
            nxt = max(c + step, target)
        else:
            nxt = 0.5 * (c + failed)
            if c - failed <= tol or nxt in (c, failed):
                break
        point = _stable_point(op, kappa, nxt, u + (nxt - c) * tangent, opts)
        probes.append((nxt, point is not None))
        if point is None:
            failed = nxt
        else:
            c, (u, tangent) = nxt, point
            step *= 2.0
    return c, u, failed


def solve_negative_c_monotone(p, u_plus, opts=None, op=None, trace=None):
    """Monotone iteration from an upper solution down to a solution.

    Each sweep solves the shifted linear system
    ``((-Delta)^s + phi) u_next = phi u + kappa e^u - c`` with the tightest
    order-preserving shift phi = max(0, -kappa) e^{level}, where ``level``
    is the iterate the current factor was built at (first u_plus). Below
    ``level`` the right-hand side is nondecreasing in u, and for s <= 1
    diag(mu) ((-Delta)^s + phi) is an irreducible nonsingular M-matrix
    (phi > 0 wherever kappa < 0, and an upper solution needs some
    kappa < 0), so each sweep preserves order. The sequence is provably
    nonincreasing and bounded below by a constant lower solution; both
    facts are asserted at every step.

    Every iterate is itself an upper solution (the one-step slack identity
    r(u_next) = phi (u - u_next) + kappa (e^u - e^{u_next}) >= 0), so any
    earlier iterate is a valid ``level``. Once the iterate has fallen more
    than ln 2 below ``level`` somewhere, phi there is more than twice the
    tightest shift and the factor is rebuilt at the current iterate; an
    oversized shift is what slows the contraction. A sweep with a step of at
    most 1e-10 leaves through _verified once its residual is within tol or
    no lower than that of an earlier such sweep, since round-off then stops
    the residual from falling. Pass a list as ``trace`` to record iterates.
    """
    opts = opts or SolveOptions()
    if p.c >= 0:
        raise ValueError("monotone iteration requires c < 0")
    op = _ensure_operator(p.graph, p.s, op)
    g = p.graph
    kappa, c = p.kappa, p.c
    u_plus = as_function(g, u_plus)

    slack = _residual(op, kappa, c, u_plus)
    if not np.all(np.isfinite(slack)):
        # an overflowed e^u would also overflow the shift built at u_plus
        raise NotAnUpperSolution("upper-solution slack is not finite everywhere")
    slack_scale = 1.0 + float(np.max(np.abs(op.op_matrix @ u_plus))) + abs(c)
    if float(np.min(slack)) < -1e-10 * slack_scale:
        raise NotAnUpperSolution(
            f"upper-solution slack dips to {float(np.min(slack)):.3e}"
        )

    kappa_neg = np.maximum(0.0, -kappa)
    lower = _lower_level(kappa, c, u_plus)

    def factor_at(level):
        phi = kappa_neg * np.exp(level)
        chol_solve = _shifted_cholesky(g, op, phi)
        if chol_solve is None:
            raise SingularSystem("monotone system not positive definite")
        return phi, chol_solve

    level = u_plus
    phi, chol_solve = factor_at(level)
    u = u_plus.copy()
    if trace is not None:
        trace.append(u.copy())
    tol_mono = 1e-12 * (1.0 + float(np.max(np.abs(u_plus))) + abs(lower))
    floor = math.inf  # the lowest residual of a small step so far
    for it in range(1, opts.max_iter_monotone + 1):
        rhs = g.mu * (phi * u + kappa * np.exp(u) - c)
        u_next = chol_solve(rhs)
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
        if step <= _STEP_TOL:
            # round-off floors the residual: stop once it no longer falls
            residual = check_solution(p, u, op).residual_inf
            if residual <= opts.tol or residual >= floor:
                return _verified(p, op, u, "monotone-iteration", it, opts)
            floor = residual
        if float(np.max(level - u)) > math.log(2.0):
            level = u
            phi, chol_solve = factor_at(level)
    raise NotSolved("monotone iteration cap reached", trace=["monotone-iteration"])


def _lower_level(kappa, c, u_plus):
    """Constant level that is a lower solution and sits below u_plus."""
    worst = float(np.max(-kappa))
    need_sign = math.log(worst / (-c)) if worst > 0 else 0.0
    return -(max(need_sign, -float(np.min(u_plus)), 0.0) + 1.0)


# ---------------------------------------------------------------------------
# the solve route


def solve(p, opts=None, op=None):
    """Solve the equation by the one route, _route, for every sign of c.

    Screening runs first; a certificate of unsolvability raises
    CertificateUnsolvable unless ``opts.override_screen`` is set. The route
    runs the paper's method for the sign of c, then damped Newton, unless the
    method names one of them alone. It returns through _verified, and the
    report is re-checked by it once more here, so every returned residual is
    within tol; a NotSolved carries the trace of the attempts that failed.
    """
    opts = opts or SolveOptions()
    check_tol(opts.tol)
    check_seed(opts.seed)
    verdict = screen(p)
    if verdict.status == UNSOLVABLE and not opts.override_screen:
        raise CertificateUnsolvable(
            "; ".join(verdict.reasons), verdict=verdict
        )
    op = _ensure_operator(p.graph, p.s, op)

    method = opts.method
    if method not in ("auto", "variational", "monotone", "newton"):
        raise ValueError(f"unknown method {method!r}")
    if method == "variational" and p.c < 0:
        raise ValueError("variational route covers c >= 0 only")
    if method == "monotone" and p.c >= 0:
        raise ValueError("monotone route requires c < 0")
    if method == "monotone" and p.s > 1.0:
        raise ValueError(
            "monotone route is unavailable for s > 1 (no order preservation)"
        )

    trace = []
    try:
        report = _route(p, opts, op, trace)
        report = _verified(p, op, report.solution, report.method, report.iterations, opts,
                           report.energy)
    except NotSolved as exc:
        exc.trace = trace + exc.trace
        raise
    report.verdict = verdict
    return report


def _route(p, opts, op, trace):
    """The one solve route, for every sign of c and every method.

    1. Unless the method is "newton", the paper's method: minimization for
       c >= 0; for c < 0 and s <= 1, monotone iteration from the affine
       upper solution, then under "monotone" from the continuation point.
    2. Unless the method is "variational" or "monotone", damped Newton at c
       from zero, each upper solution (the continuation point, a stable
       solution just past c) and the seeded restarts, in that order; the
       first root found wins, stable or not.

    Step 1's last error is raised under a method that stops after it, and
    InfeasibleStart, a certificate, always; any other goes to ``trace``.
    """
    affine = _affine_upper_solution(p, op) if p.c < 0 else None
    if opts.method == "monotone":
        firsts = _upper_solutions(p, opts, op, affine)
    else:
        skip = opts.method == "newton" or (p.c < 0 and (p.s > 1.0 or affine is None))
        firsts = () if skip else [affine]  # one run; affine is None for c >= 0
    failure = None
    for upper in firsts:
        if failure is not None:
            trace.append(str(failure))
        try:
            if p.c < 0:
                return solve_negative_c_monotone(p, upper, opts, op)
            return (solve_positive_c if p.c > 0 else solve_zero_c)(p, opts, op)
        except (NotSolved, NotAnUpperSolution, MonotonicityViolation) as exc:
            failure = exc
    if opts.method in ("variational", "monotone") or isinstance(failure, InfeasibleStart):
        raise failure or NotSolved("no upper solution found", trace=["monotone-iteration"])
    if failure is not None:
        trace.append(str(failure))
    rng = np.random.default_rng((opts.seed, 0x7E57))
    uppers = _upper_solutions(p, opts, op, affine) if p.c < 0 else ()
    starts = itertools.chain([np.zeros(p.graph.n)], uppers, _seeded_restarts(op, rng))
    u, iterations = _newton_attempts(op, p.kappa, p.c, starts, opts)
    if u is None:
        raise NotSolved("newton-continuation: all starts failed", trace=["newton-continuation"])
    return _verified(p, op, u, "newton-continuation", iterations, opts)


# ---------------------------------------------------------------------------
# threshold estimation


def estimate_threshold(g, s, kappa, tol=1e-4, cap=64, opts=None, op=None):
    """Bracket the negative-c solvability threshold by the stable walk in c
    from near kbar/16, with no lower target.

    c_high is the walk's last solution and c_low its last failure: the fold
    as the walk finds it, reported, not certified. width exceeds tol only
    where tol is below the spacing of doubles there. The probe log holds the
    start's c, then (c, solved) for each Newton run of the walk; ``cap``
    bounds its length. Each probe lies below every earlier solved c, but the
    log is not in decreasing order: a bisection probe lies above the
    failures before it.

    The bracket ``tol`` and the residual tolerance ``opts.tol`` must be
    finite and positive and ``cap`` at least 1; ``opts.seed`` is not used.
    The walk starts below zero, so integral(kappa) < 0 is required
    (ValueError otherwise, kappa identically zero included). Where screening
    certifies c = -1 solvable, its clause covers every c < 0 and
    ThresholdIsMinusInfinity is raised; every other kappa is bracketed.
    """
    check_tol(tol)
    if not cap >= 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    opts = opts or SolveOptions()
    check_tol(opts.tol)
    kappa = as_function(g, kappa)
    kint = integral(g, kappa)
    if kint >= 0:
        raise ValueError(
            "threshold undefined: integral(kappa) >= 0 makes every c < 0 unsolvable"
        )
    verdict = screen(KWProblem(g, s, -1.0, kappa))
    if verdict.status == SOLVABLE:
        raise ThresholdIsMinusInfinity("; ".join(verdict.reasons) + "; threshold is -infinity")

    op = _ensure_operator(g, s, op)
    start = _stable_start(op, kappa, kint / g.volume / 16.0, opts)
    if start is None:
        raise NotSolved("no solvable c found near zero", trace=["threshold"])
    probes = [(start[0], True)]
    c_hi, u, c_lo = _stable_walk(op, kappa, start, -math.inf, opts, tol, probes, cap)
    c_low = 2.0 * c_hi if c_lo is None else c_lo
    return ThresholdEstimate(
        c_low=float(c_low),
        c_high=float(c_hi),
        width=float(c_hi - c_low),
        attained_solution_at_threshold=u,
        probes=tuple(probes),
        cap_reached=len(probes) >= cap,
    )
