"""Solvers for the fractional Kazdan-Warner equation on a finite graph:

    (-Delta)^s u = kappa * exp(u) - c.

Sign screening certifies solvability or unsolvability where the sign of
(c, kappa) decides it outright; the remaining cases run one route: constrained
minimization by one trust-region Newton-CG descent (c >= 0) or monotone
iteration bracketed by upper and lower solutions (c < 0, s <= 1), then
damped Newton where that fails. One stable walk in c, Newton continuation
with a tangent predictor that accepts only points where the linearization
is positive definite, builds the continuation upper solution and drives
the estimate of the negative-c solvability threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateUnsolvable,
    MonotonicityViolation,
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
_MAX_ITER_NEWTON = 200  # cap on each damped-Newton and trust-region run
_MAX_ITER_MONOTONE = 10_000  # cap on the sweeps of each monotone iteration
_DRIFT_REL = 1e-3  # a residual above this times the equation's scale is not a solution


@dataclass
class SolveOptions:
    """The settings a caller chooses: ``tol``, the sup-norm residual every
    returned solution is verified to (finite, positive), and ``method``,
    "auto", "variational", "monotone" or "newton"."""

    tol: float = 1e-8
    method: str = "auto"


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

    At every s, integrating the equation gives integral(kappa e^u) = c |V|
    ((-Delta)^s is mu-self-adjoint and annihilates constants), and the sign
    conditions this needs are certified; the paper's if-and-only-if clauses
    apply on top for s <= 1, its sufficient clauses for s > 1, and the rest
    is reported unknown.
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
        if not changes_sign:
            return FeasibilityVerdict(UNSOLVABLE, (
                "c = 0 with kappa one-signed and not identically zero: integral(kappa e^u) "
                "= 0 is impossible (integrated equation)",
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
    if kmin >= 0:
        return FeasibilityVerdict(UNSOLVABLE, (
            "c < 0 with kappa nowhere negative: integral(kappa e^u) = c |V| < 0 is "
            "impossible (integrated equation)",
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


def _accepted(op, kappa, c, u, tol):
    """The one test of a candidate u, for every route: (accepted, R, T), R the
    sup-norm residual, T = ||A u||_inf + ||kappa e^u||_inf + |c| the size of
    the equation's terms (A = op_matrix, applied once). Accepted where
    R <= tol and R <= _DRIFT_REL T: a drift toward a constant -infinity, or a
    kappa so small that every term is round-off, meets any absolute tol."""
    au = op.op_matrix @ u
    with np.errstate(over="ignore", invalid="ignore"):
        ke = kappa * np.exp(u)
        residual = float(np.max(np.abs(au - ke + c)))
        scale = float(np.max(np.abs(au)) + np.max(np.abs(ke))) + abs(c)
    return residual <= tol and residual <= _DRIFT_REL * scale, residual, scale


def _miss(residual, scale, tol):
    """How a candidate that _accepted rejects missed: its residual against
    tol, or, where the residual is within tol, against the scale of the
    equation's terms (a drift)."""
    if not residual <= tol:  # a NaN residual misses tol
        return f"residual {residual:.3e} > tol {tol:.3e}"
    return (f"residual {residual:.3e}, a drift: {residual / scale:.3e} of the "
            f"equation's scale {scale:.3e}")


def _verified(p, op, u, method, iterations, opts, energy=None):
    """Every solve's one exit: u's report where _accepted accepts u, else NotSolved."""
    accepted, residual, scale = _accepted(op, p.kappa, p.c, u, opts.tol)
    if not accepted:
        raise NotSolved(f"{method} stopped at {_miss(residual, scale, opts.tol)}")
    return SolveReport(u, residual, method, iterations, energy)


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


def _damped_newton(op, kappa, c, u0, opts):
    """Damped Newton on F(u) = op u - kappa e^u + c from u0, with a
    sum-of-squares line search that never accepts a non-finite residual.
    Each step solves (mu J) step = -mu r by _newton_step, trying Cholesky
    at c < 0 only (mu J has form -integral(kappa e^u) = -c |V| on constants
    at a solution). A step that is singular or not finite ends the run
    where it stands, and a start of non-finite residual runs no step.
    Returns (u, iterations); _accepted judges u."""
    g = op.graph
    target = max(1e-13, 1e-3 * opts.tol)
    u = np.array(u0, dtype=float)
    r = _residual(op, kappa, c, u)
    if not np.all(np.isfinite(r)):
        return u, 0
    with np.errstate(over="ignore"):
        phi = 0.5 * float(r @ r)
    its, stalls = 0, 0
    while its < _MAX_ITER_NEWTON and float(np.max(np.abs(r))) > target:
        with np.errstate(over="ignore"):
            b = -g.mu * r
        # kappa e^u is finite, as the residual r is
        step = _newton_step(g, op, -kappa * np.exp(u), b, cholesky=c < 0)
        if step is None or not np.all(np.isfinite(step)):
            break
        its += 1
        t = 1.0
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
                    break
            t *= 0.5
        if t < 1e-12 or stalls >= 3:  # no step accepted, or a crawl
            break
    return u, its


@np.errstate(over="ignore", invalid="ignore")
def _trust_region(fun, x, op, gtol):
    """Minimize by Newton-CG in a trust region (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 4 and Alg. 7.2; Steihaug 1983). fun(x)
    returns (f, gradient, hessp), hessp(d) the Hessian times d, with f not
    finite off the domain. Each step is truncated CG on the quadratic model,
    preconditioned by the M^{-1} of _spectral_inverse and bounded in the
    M-norm. CG goes to the boundary along negative curvature, so the descent
    does not settle on a saddle, and a step that leaves the domain is halved
    back into it. Stops at a sup-norm gradient within gtol, once the model
    predicts a decrease below 1e-15 (1 + |f|), where round-off takes over
    (that last step is kept if it lowers the gradient), or after
    _MAX_ITER_NEWTON steps. A CG inner product that is not finite, as at an
    extreme c, ends the descent where it stands. Returns (x, steps taken)."""
    precondition = _spectral_inverse(op)
    f, grad, hessp = fun(x)
    if not (math.isfinite(f) and np.all(np.isfinite(grad))):
        return x, 0
    radius = None
    for it in range(_MAX_ITER_NEWTON):
        y = precondition(grad)
        ry = float(grad @ y)
        if not (float(np.max(np.abs(grad))) > gtol and 0 < ry < math.inf):
            return x, it
        radius = math.sqrt(ry) if radius is None else radius
        cg_tol = min(0.1, ry ** 0.25) * math.sqrt(ry)  # superlinear forcing
        # CG from z = 0 on m(z) = grad.z + z.Hz / 2; zz, zd and dd are the
        # M-inner products of z and d, carried by the recurrences of PCG
        r, z, d = grad, np.zeros_like(x), -y
        zz, zd, dd, model = 0.0, 0.0, ry, 0.0
        for _ in range(x.size):
            hd = hessp(d)
            dhd, rd = float(d @ hd), float(r @ d)
            if not (math.isfinite(dhd) and math.isfinite(rd)):
                return x, it
            alpha = ry / dhd if dhd > 0 else math.inf
            boundary = not zz + alpha * (2.0 * zd + alpha * dd) < radius * radius
            if boundary:  # the region binds, or the curvature is not positive
                alpha = (math.sqrt(zd * zd + dd * (radius * radius - zz)) - zd) / dd
            z = z + alpha * d
            zz += alpha * (2.0 * zd + alpha * dd)
            model += alpha * rd + 0.5 * alpha * alpha * dhd
            if boundary:
                break
            r = r + alpha * hd
            y = precondition(r)
            ry_old, ry = ry, float(r @ y)
            if not ry > cg_tol * cg_tol:
                break
            beta = ry / ry_old
            zd, dd = beta * (zd + alpha * dd), ry + beta * beta * dd
            d = -y + beta * d
        trial, gz = fun(x + z), float(grad @ z)
        for _ in range(60):  # halve a step out of the domain, down to 1e-18 of it
            if math.isfinite(trial[0]):
                break
            z, zz, gz, model = 0.5 * z, 0.25 * zz, 0.5 * gz, 0.25 * (model + gz)
            trial = fun(x + z)
        if not -model > 1e-15 * (1.0 + abs(f)):
            # f cannot resolve this step: it is kept only if it lowers the gradient
            better = (math.isfinite(trial[0])
                      and float(np.max(np.abs(trial[1]))) < float(np.max(np.abs(grad))))
            return (x + z, it + 1) if better else (x, it)
        rho = (trial[0] - f) / model if np.all(np.isfinite(trial[1])) else -math.inf
        if not rho >= 0.25:
            radius = 0.25 * math.sqrt(zz)
        elif rho > 0.75 and zz >= 0.99 * radius * radius:
            radius *= 2.0
        if rho > 1e-4:
            x, (f, grad, hessp) = x + z, trial
    return x, _MAX_ITER_NEWTON


def _spectral_inverse(op):
    """r -> Phi ((Phi^T r) / D), D = lambda^s with |V| on the zero mode: the
    inverse of M = energy matrix + mu mu^T = diag(mu) Phi D Phi^T diag(mu)
    where op_matrix is the spectral power, and SPD on odd orders."""
    phis, spectrum = op.sd.phis, op.sd.lambda_power(op.s, zero=op.graph.volume)
    return lambda r: phis @ ((phis.T @ r) / spectrum)


def _newton_attempts(op, kappa, c, starts, opts):
    """Damped Newton at c from each start in turn, drawn lazily; a run counts
    where _accepted accepts it, so a drift does not stop the search. At c < 0
    with kappa positive somewhere the first stable root wins (mu J positive
    definite, as at the maximal solution), and the first unstable one only
    where no start gives a stable one; kappa <= 0 makes mu J positive definite
    by construction. Returns (u, total iterations), or raises NotSolved naming
    the starts run and how the one of smallest residual missed (_miss)."""
    test_stability = c < 0 and float(np.max(kappa)) > 0
    total, runs, smallest, unstable = 0, 0, (math.inf, math.inf), None
    for u0 in starts:
        u, its = _damped_newton(op, kappa, c, u0, opts)
        total, runs = total + its, runs + 1
        ok, residual, scale = _accepted(op, kappa, c, u, opts.tol)
        smallest = min(smallest, (residual, scale))  # a NaN residual is passed over
        if not ok:
            continue
        if not test_stability or _shifted_cholesky(op.graph, op, -kappa * np.exp(u)) is not None:
            return u, total
        if unstable is None:
            unstable = u
    if unstable is None:
        raise NotSolved(f"newton-continuation: all starts failed ({runs} start"
                        f"{'s' if runs != 1 else ''}; smallest {_miss(*smallest, opts.tol)})")
    return unstable, total


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


def _system_matrix(g, op, phi, rank_one=()):
    """X = energy matrix + diag(mu phi) + alpha x x^T for each (alpha, x) in
    ``rank_one``, in one column-major copy, or None where X is not finite:
    the one matrix of every linear system the solver forms. Damped Newton
    passes phi = -kappa e^u, making X mu times the Jacobian; the positive-c
    certificate adds rank-one terms.

    No factorization scans its matrix, since LAPACK would factor a NaN
    through: the energy matrix is tested once per operator, and X here only
    on the diagonal, which holds every overflow of the shift or of a
    rank-one term, since |x_i x_j| <= max(x_i^2, x_j^2)."""
    import scipy.linalg  # imported on first use: it slows `import fraclap`
    if not op.energy_is_finite:
        return None
    # the energy matrix is exactly symmetric, so its transpose is the same
    # matrix in the column-major layout LAPACK factors in place, uncopied
    x = op.energy_matrix.T.copy(order="K")
    with np.errstate(over="ignore"):
        x.flat[:: g.n + 1] += g.mu * phi
    for alpha, v in rank_one:  # BLAS ger, in place on both triangles
        scipy.linalg.blas.dger(alpha, v, v, a=x, overwrite_a=1)
    return x if np.all(np.isfinite(x.diagonal())) else None


def _shifted_cholesky(g, op, phi, rank_one=()):
    """The solve b -> X^{-1} b by the lower Cholesky factor of the X of
    _system_matrix, or None where X is not positive definite or not finite.
    Both LAPACK calls are looked up on scipy.linalg at call time, so a
    wrapper set there sees every one."""
    import scipy.linalg  # imported on first use: it slows `import fraclap`
    x = _system_matrix(g, op, phi, rank_one)
    if x is None:
        return None
    try:
        factor = scipy.linalg.cho_factor(x, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    return lambda b: scipy.linalg.cho_solve(factor, b, check_finite=False)


def _newton_step(g, op, phi, b, cholesky=True):
    """X^{-1} b for the X of _system_matrix: by its Cholesky factor where
    ``cholesky`` is set and X is positive definite, else by LU on X built
    again (a failed factorization overwrites it). None where b or X is not
    finite or X is singular, which ends that Newton run."""
    if not np.all(np.isfinite(b)):
        return None
    chol_solve = _shifted_cholesky(g, op, phi) if cholesky else None
    if chol_solve is not None:
        return chol_solve(b)
    x = _system_matrix(g, op, phi)
    try:
        return None if x is None else np.linalg.solve(x, b)
    except np.linalg.LinAlgError:
        return None


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


def _solve_positive_c(p, opts, op):
    """_route's step for c > 0: minimize the energy functional over the
    positive-c constraint set. solve has checked opts and op.

    The constraint integral(kappa e^u) = c |V| is eliminated exactly by the
    shift u = v + log(c |V| / integral(kappa e^v)), leaving an unconstrained
    objective in v (plus a quadratic penalty pinning the free additive
    constant). The objective is evaluated in log space, so no e^v is formed
    unscaled. _trust_region descends it; if the residual is still above tol
    (small c), damped Newton on the equation follows. The result leaves
    through _verified, and only as a minimizer: its reduced Hessian
    energy matrix + mu mu^T - c |V| (diag(w) - w w^T) must have a Cholesky
    factor, or NotSolved is raised.
    """
    g = p.graph
    kappa, c, mu, vol = p.kappa, p.c, g.mu, g.volume
    cv = c * vol
    ua = op.energy_matrix

    def log_mass(v):
        """(log integral(kappa e^v), weights w = kappa mu e^v / integral),
        or None where the mass is not positive."""
        vmax = float(np.max(v))
        q = kappa * mu * np.exp(v - vmax)
        total = float(np.sum(q))
        if not total > 0:
            return None
        return vmax + math.log(total), q / total

    def objective(v):
        lm = log_mass(v)
        if lm is None:
            return math.inf, np.zeros_like(v), None
        log_m, w = lm
        av = ua @ v
        iv = float(np.dot(v, mu))
        val = 0.5 * float(v @ av) + c * (iv + vol * (math.log(cv) - log_m))

        def hessp(d):
            return ua @ d + float(mu @ d) * mu - cv * (w * d - float(w @ d) * w)

        # an overflowed c |V| leaves the gradient not finite, and the candidate fails
        with np.errstate(over="ignore", invalid="ignore"):
            return val + 0.5 * iv * iv, av + (c + iv) * mu - cv * w, hessp

    v, iterations = _trust_region(objective, _positive_start(p), op, 1e-13 * (1.0 + cv))
    u = v + (math.log(cv) - log_mass(v)[0])
    if not np.all(np.isfinite(u)):  # c |V| overflowed, so the shift did
        raise NotSolved("variational-positive-c: candidate is not finite")
    if not _accepted(op, kappa, c, u, opts.tol)[0]:
        polished, extra = _damped_newton(op, kappa, c, u, opts)
        iterations += extra
        u = polished if _accepted(op, kappa, c, polished, opts.tol)[0] else u
    energy = 0.5 * dirichlet_energy(op, u) + c * integral(g, u)
    report = _verified(p, op, u, "variational-positive-c", iterations, opts, float(energy))
    w = log_mass(u)[1]
    if _shifted_cholesky(g, op, -cv * w / mu, ((cv, w), (1.0, mu))) is None:
        raise NotSolved("variational-positive-c did not end at a minimizer: its reduced "
                        "Hessian has no Cholesky factor")
    return report


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
        raise NotSolved("variational-positive-c: kappa is nowhere positive")
    rest = float(np.dot(kappa, mu)) - kappa[best] * mu[best]
    with np.errstate(over="ignore", divide="ignore"):
        ratio = (1.0 + abs(rest)) / (kappa[best] * mu[best])
    # a ratio overflowed by a subnormal kappa mu is taken apart in logs
    v[best] = 1.0 + (math.log(ratio) if ratio < math.inf else
                     math.log1p(abs(rest)) - math.log(kappa[best]) - math.log(mu[best]))
    return v


# ---------------------------------------------------------------------------
# c = 0: minimization on the two-constraint manifold


def _solve_zero_c(p, opts, op):
    """_route's step for c = 0: minimize the fractional Dirichlet energy
    subject to integral(u) = 0 and integral(kappa e^u) = 0, then shift by
    the Euler-Lagrange multiplier. solve has checked opts and op.

    _trust_region, as for c > 0, minimizes F(v) = z^T S z / 2 with
    z = _restore_constraint(v) = v + beta(v) b on the constraint set, S the
    energy matrix and b the bump. With q = kappa mu e^z, P = I - b q^T / q^T b
    and gamma = b^T S z / q^T b, the implicit derivative of beta gives the
    gradient P^T S z and the Hessian P^T (S - gamma diag(q)) P; mean removal
    drops out since S 1 = 0. F is flat along 1 and b, so the penalties
    ((mu^T v)^2 + ((mu b)^T v)^2) / 2 pin both; they vanish at every critical
    point, as mu^T b = 0. The multiplier must come out positive; the final
    answer is u0 + log(multiplier), polished by damped Newton and returned
    through _verified.
    """
    g = p.graph
    kappa, mu = p.kappa, g.mu
    if not np.any(kappa):
        # every constant solves, and every mean-zero u meets the constraints
        return _verified(p, op, np.zeros(g.n), "variational-zero-c", 0, opts, 0.0)
    if float(np.max(kappa)) <= 0 or float(np.min(kappa)) >= 0:
        raise NotSolved("variational-zero-c: constraint set empty: kappa must change sign")

    bump = _meanzero_bump(g, kappa)
    pin = mu * bump
    ua = op.energy_matrix

    def objective(v):
        z = _restore_constraint(g, kappa, v, bump)
        sz = ua @ z
        q = kappa * mu * np.exp(z - np.max(z))
        qb = float(q @ bump)
        gamma = float(bump @ sz) / qb
        iv, ib = float(mu @ v), float(pin @ v)

        def hessp(d):
            pd = d - (float(q @ d) / qb) * bump
            t = ua @ pd - gamma * q * pd
            return t - (float(bump @ t) / qb) * q + float(mu @ d) * mu + float(pin @ d) * pin

        val = 0.5 * (float(z @ sz) + iv * iv + ib * ib)
        return val, sz - gamma * q + iv * mu + ib * pin, hessp

    v, iterations = _trust_region(objective, np.zeros(g.n), op, 1e-13)
    u = _restore_constraint(g, kappa, v, bump)

    theta = 0.5 * float(u @ ua @ u)
    with np.errstate(over="ignore"):
        denom = integral(g, kappa * u * np.exp(u))
    if denom == 0:
        raise NotSolved("variational-zero-c: multiplier denominator vanished (false convergence)")
    multiplier = 2.0 * theta / denom
    if multiplier <= 0:
        raise NotSolved(
            f"variational-zero-c: multiplier {multiplier:.3e} <= 0 (false convergence)")
    shifted = u + math.log(multiplier)

    polished, extra = _damped_newton(op, kappa, 0.0, shifted, opts)
    iterations += extra
    candidate = polished if _accepted(op, kappa, 0.0, polished, opts.tol)[0] else shifted
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
    along +bump and a doubling bracket always finds the root, which
    safeguarded Newton then pins (a step leaving the bracket bisects it).
    The root is sought on the mass relative to e^{max}, which has the same
    sign and never overflows. The bump touches two vertices, so the mass of
    the rest is summed once, and each evaluation costs O(1).
    """
    (a_i, b_i, u_i), (a_j, b_j, u_j) = (
        (float(kappa[k] * g.mu[k]), float(bump[k]), float(u[k])) for k in np.flatnonzero(bump))
    rest = bump == 0
    top_rest, mass_rest = -math.inf, 0.0  # an empty rest adds nothing
    if rest.any():  # the rest's mass relative to e^{its max}
        top_rest = float(np.max(u[rest]))
        mass_rest = float(np.dot(kappa[rest] * np.exp(u[rest] - top_rest), g.mu[rest]))

    def h(beta):
        """The relative mass at u + beta bump and its derivative in beta."""
        x_i, x_j = u_i + beta * b_i, u_j + beta * b_j
        top = max(x_i, x_j, top_rest)
        m_i, m_j = a_i * math.exp(x_i - top), a_j * math.exp(x_j - top)
        return m_i + m_j + mass_rest * math.exp(top_rest - top), b_i * m_i + b_j * m_j

    lo, hi = (0.0, 1.0) if h(0.0)[0] > 0 else (-1.0, 0.0)
    while h(hi)[0] > 0:
        hi *= 2.0
    while h(lo)[0] < 0:
        lo *= 2.0
    beta, step = 0.5 * (lo + hi), math.inf
    # xtol 1e-14 plus four machine epsilons of beta, below which steps are round-off
    while min(abs(step), hi - lo) > 1e-14 + 8.9e-16 * abs(beta):
        mass, slope = h(beta)
        if mass == 0:
            break
        lo, hi = (beta, hi) if mass > 0 else (lo, beta)
        nxt = beta - mass / slope if slope < 0 else math.nan  # a NaN step bisects
        nxt = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        beta, step = nxt, nxt - beta
    out = u + beta * bump
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
    """An upper solution at c from the stable walk, or None. The walk goes
    from near c/2 down to c (1 + 1e-6), slightly past c. A walk that stops
    short runs Newton at its target once more from its last solution: a
    tangent step can fail where a start that close succeeds, and bisection
    never probes the target again. The walk accepts residuals up to tol,
    which can outweigh that margin, so a solution whose slack at c is
    negative runs Newton once more, 2 tol past c, where a residual within
    tol leaves a slack of at least tol at c."""
    target = p.c * (1.0 + 1e-6)
    walk = _stable_walk(op, p.kappa, p.c / 2.0, target, opts, abs(p.c) * 1e-9, [], math.inf)
    if walk is None:
        return None
    c_end, u, _ = walk
    if c_end > p.c:
        point = _stable_point(op, p.kappa, target, u, opts)
        if point is None:
            return None
        u = point[0]
    if float(np.min(_residual(op, p.kappa, p.c, u))) >= 0:
        return u
    point = _stable_point(op, p.kappa, p.c - 2.0 * opts.tol, u, opts)
    return None if point is None else point[0]


def _stable_point(op, kappa, c, u0, opts):
    """Damped Newton at c < 0 from u0, accepted only where mu J = energy
    matrix - diag(mu kappa e^u) is positive definite (Morse index 0), as at
    the maximal solution of upper and lower solutions. Returns (u, du/dc),
    from (mu J) du/dc = -mu on that factor, or None. The residual of an
    accepted u is finite, so e^u does not overflow."""
    u, _ = _damped_newton(op, kappa, c, u0, opts)
    if not _accepted(op, kappa, c, u, opts.tol)[0]:
        return None
    chol_solve = _shifted_cholesky(op.graph, op, -kappa * np.exp(u))
    return None if chol_solve is None else (u, chol_solve(-op.graph.mu))


def _stable_walk(op, kappa, c0, target, opts, tol, probes, cap):
    """Continuation in c along the stable branch from near c0 < 0 down to
    target, each run from the tangent predictor. It starts at the first
    c = c0 / 2^k, k < 16, that Newton solves stably from the constant
    log(c / kbar), the limit of the branch as c -> 0-, and returns None where
    there is none (kbar >= 0, c underflowed to zero, or 16 failures). The
    first step goes to 2c and doubles after each success; after the first
    failure the walk bisects between the last solution and the last failure.
    It stops at the target, once those are at most tol apart or adjacent
    doubles, or once ``probes``, given (c, True) for the start and then
    (c', solved) for every run, holds ``cap`` entries. Returns the last
    solved c, its u and the last failed c (None before any failure)."""
    kbar = mean(op.graph, kappa)
    if kbar >= 0:
        return None
    for k in range(16):
        c = c0 / 2.0**k
        if c == 0:
            return None
        point = _stable_point(op, kappa, c, np.full(op.graph.n, math.log(c / kbar)), opts)
        if point is not None:
            break
    else:
        return None
    (u, tangent), step, failed = point, c, None
    probes.append((c, True))
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
    the residual from falling; after _MAX_ITER_MONOTONE sweeps NotSolved is
    raised. Pass a list as ``trace`` to record iterates. Order preservation
    needs s <= 1, so s > 1 raises ValueError, as c >= 0 does.
    """
    opts = opts or SolveOptions()
    if p.c >= 0:
        raise ValueError("monotone iteration requires c < 0")
    if p.s > 1.0:
        raise ValueError("monotone route is unavailable for s > 1 (no order preservation)")
    op = _ensure_operator(p.graph, p.s, op)
    g = p.graph
    kappa, c = p.kappa, p.c
    u_plus = as_function(g, u_plus)

    slack = _residual(op, kappa, c, u_plus)
    if not np.all(np.isfinite(slack)):
        # an overflowed e^u would also overflow the shift built at u_plus
        raise NotAnUpperSolution("monotone-iteration: upper-solution slack is not finite")
    slack_scale = 1.0 + float(np.max(np.abs(op.op_matrix @ u_plus))) + abs(c)
    if float(np.min(slack)) < -1e-10 * slack_scale:
        raise NotAnUpperSolution(
            f"monotone-iteration: upper-solution slack dips to {float(np.min(slack)):.3e}"
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
    for it in range(1, _MAX_ITER_MONOTONE + 1):
        rhs = g.mu * (phi * u + kappa * np.exp(u) - c)
        u_next = chol_solve(rhs)
        if float(np.max(u_next - u)) > tol_mono:
            raise MonotonicityViolation(
                f"monotone-iteration: iterate increased by {float(np.max(u_next - u)):.3e} "
                f"at sweep {it}"
            )
        if float(np.min(u_next)) < lower - tol_mono:
            raise MonotonicityViolation(
                f"monotone-iteration: iterate dropped below the lower solution at sweep {it}"
            )
        step = float(np.max(np.abs(u_next - u)))
        u = u_next
        if trace is not None:
            trace.append(u.copy())
        if step <= _STEP_TOL:
            # round-off floors the residual: stop once it no longer falls
            accepted, residual, _ = _accepted(op, kappa, c, u, opts.tol)
            if accepted or residual >= floor:
                return _verified(p, op, u, "monotone-iteration", it, opts)
            floor = residual
        if float(np.max(level - u)) > math.log(2.0):
            level = u
            phi, chol_solve = factor_at(level)
    raise NotSolved("monotone-iteration: iteration cap reached")


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
    CertificateUnsolvable. The route runs the paper's method for the sign of
    c, then damped Newton, unless the method names one of them alone. It
    returns through _verified, and the report is re-checked by it once more
    here, so every returned residual is within tol. Only here is a NotSolved's
    trace set: one message per failed attempt, in order, its own last.
    """
    opts = opts or SolveOptions()
    check_tol(opts.tol)
    verdict = screen(p)
    if verdict.status == UNSOLVABLE:
        raise CertificateUnsolvable("; ".join(verdict.reasons), verdict=verdict)
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

    failed = []
    try:
        report = _route(p, opts, op, failed)
        report = _verified(p, op, report.solution, report.method, report.iterations, opts,
                           report.energy)
    except NotSolved as exc:
        exc.trace = tuple(str(attempt) for attempt in (*failed, exc))
        raise
    report.verdict = verdict
    return report


def _route(p, opts, op, failed):
    """The one solve route, for every sign of c and every method.

    1. Unless the method is "newton", the paper's method: minimization for
       c >= 0; for c < 0 and s <= 1, monotone iteration from the affine
       upper solution, then under "monotone" from the continuation point.
    2. Unless the method is "variational" or "monotone", damped Newton at c
       from zero and, at c < 0, from each upper solution (the affine one,
       then the continuation point, a stable solution just past c), in that
       order; the first root found wins, except that at c < 0 with kappa
       positive somewhere a stable root wins over an unstable one found
       earlier.

    Each failed attempt of step 1 goes to ``failed`` as it happens; under a
    method that stops after step 1, the last is taken back and raised.
    """
    affine = _affine_upper_solution(p, op) if p.c < 0 else None
    if opts.method == "monotone":
        firsts = _upper_solutions(p, opts, op, affine)
    else:
        skip = opts.method == "newton" or (p.c < 0 and (p.s > 1.0 or affine is None))
        firsts = () if skip else [affine]  # one run; affine is None for c >= 0
    for upper in firsts:
        try:
            if p.c < 0:
                return solve_negative_c_monotone(p, upper, opts, op)
            return (_solve_positive_c if p.c > 0 else _solve_zero_c)(p, opts, op)
        except (NotSolved, NotAnUpperSolution, MonotonicityViolation) as exc:
            failed.append(exc)
    if opts.method in ("variational", "monotone"):
        raise failed.pop() if failed else NotSolved("monotone-iteration: no upper solution found")
    uppers = _upper_solutions(p, opts, op, affine) if p.c < 0 else ()
    starts = itertools.chain([np.zeros(p.graph.n)], uppers)
    u, iterations = _newton_attempts(op, p.kappa, p.c, starts, opts)
    return _verified(p, op, u, "newton-continuation", iterations, opts)


# ---------------------------------------------------------------------------
# threshold estimation


def estimate_threshold(g, s, kappa, tol=1e-4, cap=64, opts=None, op=None):
    """Bracket the negative-c threshold by the stable walk in c from near
    kbar / max|kappa| / 16, free of kappa's amplitude like the threshold.

    c_high is the walk's last solution and c_low its last failure: the fold
    as the walk finds it, reported, not certified. width exceeds tol only
    where tol is below the spacing of doubles there. The probe log holds the
    start's c, then (c, solved) for each Newton run of the walk; ``cap``
    bounds its length. Each probe lies below every earlier solved c, but the
    log is not in decreasing order: a bisection probe lies above the
    failures before it.

    The bracket ``tol`` and the residual tolerance ``opts.tol`` must be
    finite and positive and ``cap`` at least 1. Screening at c = -1 decides
    every c < 0: its certificate of unsolvability leaves the threshold
    undefined (ValueError quoting it), and one of solvability raises
    ThresholdIsMinusInfinity. The walk starts below zero, so it needs
    integral(kappa) < 0 (a ValueError that claims nothing about
    solvability); every other kappa is bracketed.
    """
    check_tol(tol)
    if not cap >= 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    opts = opts or SolveOptions()
    check_tol(opts.tol)
    kappa = as_function(g, kappa)
    verdict = screen(KWProblem(g, s, -1.0, kappa))
    if verdict.status == UNSOLVABLE:
        raise ValueError("threshold undefined: integral(kappa) >= 0 and every c < 0 is "
                         "certified unsolvable: " + "; ".join(verdict.reasons))
    if verdict.status == SOLVABLE:
        raise ThresholdIsMinusInfinity("; ".join(verdict.reasons) + "; threshold is -infinity")
    if integral(g, kappa) >= 0:
        raise ValueError("threshold walk needs integral(kappa) < 0: it starts at "
                         "c = kbar / max|kappa| / 16 (screening leaves c < 0 open here)")

    op = _ensure_operator(g, s, op)
    probes = []
    walk = _stable_walk(op, kappa, mean(g, kappa) / float(np.max(np.abs(kappa))) / 16.0,
                        -math.inf, opts, tol, probes, cap)
    if walk is None:
        raise NotSolved("threshold: no solvable c found near zero")
    c_hi, u, c_lo = walk
    c_low = 2.0 * c_hi if c_lo is None else c_lo
    return ThresholdEstimate(
        c_low=float(c_low),
        c_high=float(c_hi),
        width=float(c_hi - c_low),
        attained_solution_at_threshold=u,
        probes=tuple(probes),
        cap_reached=len(probes) >= cap,
    )
