"""Embedding constants and the cross-cutting invariant suite.

``run_suite`` executes every structural identity the package promises on a
given graph, with seeded randomness, and returns a machine-readable report.
The CLI ``check`` subcommand wraps it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kazdan_warner as kw
from .errors import CertificateUnsolvable, NotSolved, ValidationError
from .fractional import (_induced_inf, build_operator, dirichlet_energy, frac_inner,
                         limit_residuals, spectral_kernel)
from .graph import (
    divergence,
    gradient_field,
    integral,
    laplacian_apply,
    mu_inner,
    pointwise_inner,
)
from .spectral import decompose, heat_apply, heat_kernel


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    measured: float
    tolerance: float
    citation: str
    witness: str | None = None

    def to_dict(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            # informational entries carry no tolerance
            "tolerance": self.tolerance if np.isfinite(self.tolerance) else None,
            "citation": self.citation,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if not e.passed]

    def to_dict(self):
        return {
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


def poincare_constant(sd, s):
    """Sharp constant C with integral(u^2) <= C integral(|grad^s u|^2) for
    mean-zero u; equals 1 / lambda_2^s on a connected graph."""
    if s <= 0:
        raise ValueError("s must be positive")
    if sd.n < 2:
        raise ValidationError(f"the Poincare constant needs at least 2 vertices, got {sd.n}")
    lam2 = float(sd.lambdas[1])
    if lam2 <= 0:
        raise ValueError("second eigenvalue vanished; graph not connected?")
    return 1.0 / lam2**float(s)


def trudinger_moser_bound(g, sd, s, alpha):
    """Uniform bound on integral(exp(alpha u^2)) over the unit-energy
    mean-zero ball. Nonpositive alpha is the trivial regime (the volume).
    A bound beyond the double range (long paths at s > 1) is inf, which
    every sample passes; its check entry shows ``"tolerance": null``."""
    alpha = float(alpha)
    if alpha <= 0:
        return g.volume
    c_p = poincare_constant(sd, s)
    mu_min = float(np.min(g.mu))
    with np.errstate(over="ignore"):
        return float(np.exp(alpha * c_p / mu_min) * g.volume)


# ---------------------------------------------------------------------------
# suite internals


def _entry(entries, name, measured, tolerance, citation, witness=None, failed=False):
    passed = bool(measured <= tolerance) and not failed
    entries.append(CheckEntry(name, passed, float(measured), float(tolerance), citation, witness))


def _info(entries, name, measured, citation):
    entries.append(CheckEntry(name, True, float(measured), math.inf, citation))


def kernel_entries(op, name_prefix=""):
    """Symmetry and strict positivity of the nonlocal kernel, with witness.

    Usable standalone so fault-injection tests can feed a corrupted operator.
    """
    entries = []
    asym, (i, j), low, (k, l) = _kernel_defects(op.kernel)
    _entry(entries, f"{name_prefix}kernel-symmetry", asym, 1e-12,
           "the nonlocal kernel is symmetric in its two vertices", f"pair ({i}, {j})")
    entries.append(CheckEntry(f"{name_prefix}kernel-positivity", bool(low > 0), low, 0.0,
                              "the nonlocal kernel is strictly positive off the diagonal",
                              f"pair ({k}, {l})"))
    return entries


def _kernel_defects(w):
    """(largest |w - w^T|, its pair, smallest off-diagonal entry, its pair)."""
    asym = np.abs(w - w.T)
    worst = np.unravel_index(np.argmax(asym), asym.shape)
    off = np.where(~np.eye(len(w), dtype=bool), w, np.inf)
    lowest = np.unravel_index(np.argmin(off), off.shape)
    return float(asym[worst]), worst, float(off[lowest]), lowest


def _eigen_residual(mat, sd, values):
    """Worst sup-norm residual of mat phi_i = values_i phi_i over the
    eigenfunctions, each relative to 1 + values_i."""
    resid = np.abs(mat @ sd.phis - sd.phis * values[None, :])
    return float(np.max(resid.max(axis=0) / (1.0 + values)))


# a draw the Laplacian is applied to is scaled when ||L||_inf ||u||_inf
# exceeds 2**LAPLACIAN_DRAW_EXPONENT, so the checks' sums and products of
# L u stay finite; no graph of moderate weights reaches it
LAPLACIAN_DRAW_EXPONENT = 512


def _laplacian_draws(g, draws):
    """draws, scaled in place by a power of two to ||L||_inf ||u||_inf <= 1
    where that product exceeds 2**LAPLACIAN_DRAW_EXPONENT; ||L||_inf is
    max 2 d/mu, finite on every graph that loads."""
    d = g.edge_pattern[3]
    exponent = (math.frexp(float(np.max(2.0 * d / g.mu)))[1]
                + math.frexp(float(np.max(np.abs(draws))))[1])
    if exponent > LAPLACIAN_DRAW_EXPONENT:
        draws *= 2.0 ** -exponent
    return draws


def _calculus_checks(g, rng, entries):
    n = g.n
    fns = _laplacian_draws(g, rng.standard_normal((50, n)))
    worst = max(
        abs(integral(g, laplacian_apply(g, u))) / (np.max(np.abs(u)) * g.volume)
        for u in fns
    )
    _entry(entries, "laplacian-zero-mean", worst, 1e-10,
           "the image of the Laplacian integrates to zero")

    worst = 0.0
    for _ in range(100):
        u = _laplacian_draws(g, rng.standard_normal(n))
        v = rng.standard_normal(n)
        lhs = mu_inner(g, v, laplacian_apply(g, u))
        rhs = integral(g, pointwise_inner(g, gradient_field(g, u), gradient_field(g, v)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    _entry(entries, "green-identity", worst, 1e-10,
           "summation by parts for the local gradient")

    worst = max(
        float(np.max(np.abs(divergence(g, gradient_field(g, u)) + laplacian_apply(g, u))))
        for u in fns[:20]
    )
    _entry(entries, "divergence-of-gradient", worst, 1e-10,
           "divergence of the gradient recovers the Laplacian")

    u = rng.standard_normal(n)
    f = gradient_field(g, u).entries
    scaled = np.sqrt(g.mu)[:, None] * f
    worst = float(np.max(np.abs(scaled + scaled.T)))
    _entry(entries, "gradient-antisymmetry", worst, 1e-10,
           "measure-scaled gradient entries are antisymmetric")


def _spectral_checks(g, sd, rng, entries):
    n = g.n
    gram = sd.phis.T @ (g.mu[:, None] * sd.phis) - np.eye(n)
    _entry(entries, "eigenbasis-orthonormality", float(np.max(np.abs(gram))), 1e-10,
           "eigenfunctions are orthonormal in the measure inner product")
    _entry(entries, "first-eigenvalue-zero", abs(float(sd.lambdas[0])), 1e-10,
           "connected graphs have a simple zero eigenvalue")
    _entry(entries, "first-eigenfunction-constant",
           float(np.max(np.abs(sd.phis[:, 0] - 1.0 / np.sqrt(g.volume)))), 1e-10,
           "the zero mode is the normalized constant")
    worst = _eigen_residual(g.laplacian_matrix(), sd, sd.lambdas)
    _entry(entries, "eigen-residual", worst, 1e-8,
           "each eigenpair satisfies its defining equation")

    worst = 0.0
    for t in (0.01, 0.1, 1.0, 10.0):
        p = heat_kernel(sd, t)
        worst = max(worst, float(np.max(np.abs(p @ g.mu - 1.0))))
    _entry(entries, "heat-mass-conservation", worst, 1e-9,
           "heat kernel rows integrate to one at every time")

    p = heat_kernel(sd, 0.37)
    _entry(entries, "heat-symmetry", float(np.max(np.abs(p - p.T))), 0.0,
           "the heat kernel is symmetric as assembled")

    worst = 0.0
    u = rng.standard_normal(n)
    for t1, t2 in ((0.01, 0.1), (0.1, 1.0), (0.5, 0.5)):
        two_step = heat_apply(sd, t1, heat_apply(sd, t2, u))
        one_step = heat_apply(sd, t1 + t2, u)
        worst = max(worst, float(np.max(np.abs(two_step - one_step))))
    _entry(entries, "heat-semigroup", worst, 1e-9,
           "evolving twice composes like a semigroup")


def _fractional_checks(g, sd, s_list, operator, rng, entries):
    n = g.n
    for s in s_list:
        op = operator(s)
        tag = f"s={s:g}:"

        # the odd composition is a different operator; the power relation is
        # asserted on the spectral power realization
        odd_path = op.sigma > 0 and op.m % 2 == 1
        mat = op.power_matrix if odd_path else op.op_matrix
        worst = _eigen_residual(mat, sd, sd.lambda_power(s))
        _entry(entries, f"{tag}eigen-relation", worst, 1e-8,
               "eigenfunctions persist with eigenvalues raised to the power s")

        worst = 0.0
        for _ in range(100):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            a = mu_inner(g, v, op.op_matrix @ u)
            b = integral(g, frac_inner(op, u, v))
            c = mu_inner(g, u, op.op_matrix @ v)
            scale = 1.0 + max(abs(a), abs(b), abs(c))
            worst = max(worst, abs(a - b) / scale, abs(b - c) / scale)
        _entry(entries, f"{tag}integration-by-parts", worst, 1e-9,
               "energy pairing agrees with the gradient inner product")

        if op.sigma > 0 and op.m == 0:
            entries.extend(kernel_entries(op, name_prefix=tag))

            draws = rng.standard_normal((1000, n))
            images = draws @ op.op_matrix.T
            at_max = images[np.arange(len(draws)), np.argmax(draws, axis=1)]
            _entry(entries, f"{tag}maximum-principle", float(-np.min(at_max)), 0.0,
                   "the image is positive at a strict maximum")

            worst = 0.0
            for _ in range(100):
                u = rng.standard_normal(n)
                v = rng.standard_normal(n)
                lhs = op.op_matrix @ (u * v)
                rhs = u * (op.op_matrix @ v) + v * (op.op_matrix @ u) - 2.0 * frac_inner(op, u, v)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            _entry(entries, f"{tag}product-rule", worst, 1e-9,
                   "product expansion with the minus-signed gradient term")

        if op.m >= 1 and op.sigma > 0:
            worst = 0.0
            for _ in range(50):
                u = rng.standard_normal(n)
                v = rng.standard_normal(n)
                lhs = mu_inner(g, v, op.op_matrix @ u)
                rhs = integral(g, frac_inner(op, u, v))
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
            _entry(entries, f"{tag}distributional-identity", worst, 1e-8,
                   "the composed operator matches its defining pairing")
            if op.m % 2 == 0:
                # round-off scales with the operator: 1e-8 up to a norm of 1e5
                _entry(entries, f"{tag}even-order-collapse", op.power_mismatch,
                       max(1e-8, 1e-13 * _induced_inf(op.op_matrix)),
                       "even compositions collapse to the spectral power")
            else:
                _info(entries, f"{tag}odd-order-power-gap", op.power_mismatch,
                      "gap between the odd composition and the spectral power (reported)")

        energies = np.array([dirichlet_energy(op, u) for u in rng.standard_normal((50, n))])
        const_energy = abs(dirichlet_energy(op, np.ones(n)))
        _entry(entries, f"{tag}energy-positive-nonconstant", float(-np.min(energies)), 0.0,
               "nonconstant functions carry positive energy")
        _entry(entries, f"{tag}energy-zero-constant", const_energy, 1e-9,
               "constants carry zero energy")

    worst = 0.0
    for s in [k / 10 for k in range(1, 10)]:
        asym, _, low, _ = _kernel_defects(spectral_kernel(sd, s))
        worst = max(worst, asym, -low)
    _entry(entries, "kernel-grid-positivity", worst, 0.0,
           "kernels across the exponent grid stay symmetric and positive")

    small = [s for s in s_list if 0 < s < 1]
    for s1 in small:
        for s2 in small:
            if s1 + s2 <= 1.0:
                lhs = operator(s1).op_matrix @ operator(s2).op_matrix
                rhs = operator(s1 + s2).op_matrix
                _entry(entries, f"semigroup-in-s:{s1:g}+{s2:g}",
                       float(np.max(np.abs(lhs - rhs))), 1e-8,
                       "powers compose additively in the exponent")

    rep = limit_residuals(sd, [1.0 - 10.0**-k for k in range(1, 5)])
    _entry(entries, "limit-toward-laplacian", 0.0 if rep.monotone_toward_one else 1.0, 0.5,
           "residual against the Laplacian shrinks as s grows to one")
    rep = limit_residuals(sd, [10.0**-k for k in range(1, 5)])
    _entry(entries, "limit-toward-identity", 0.0 if rep.monotone_toward_zero else 1.0, 0.5,
           "residual against the mean-zero identity shrinks as s drops to zero")


def _solved(problem, op, k, failures):
    """kw.solve's report on problem k, or None with the failure appended to
    ``failures`` as a witness; a NumericalError propagates."""
    try:
        return kw.solve(problem, op=op)
    except (CertificateUnsolvable, NotSolved) as exc:
        failures.append(f"problem {k} (c={problem.c!r}): {type(exc).__name__}: {exc}")
        return None


def _solver_checks(g, s_list, operator, rng, entries):
    n = g.n
    s = next((v for v in s_list if 0 < v < 1), 0.5)
    op = operator(s)

    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(n)
        h = f + np.abs(rng.standard_normal(n))
        phi = np.abs(rng.standard_normal(n)) + 0.1
        uf = kw.resolvent_solve(g, op, phi, f)
        uh = kw.resolvent_solve(g, op, phi, h)
        worst = max(worst, float(np.max(uf - uh)))
    _entry(entries, "resolvent-order-preservation", worst, 1e-10,
           "larger data yields a larger resolvent solution")

    rng.integers(2**31)  # the solvers' former seed draw, kept so later draws stay put
    worst_defect = 0.0
    worst_resid = 0.0
    failures = []
    for k in range(12):
        u_star = 0.5 * rng.standard_normal(n)
        c = float(rng.uniform(-1.5, 1.5))
        if k % 3 == 0:
            c = 0.0
        kappa = np.exp(-u_star) * (op.op_matrix @ u_star + c)
        problem = kw.KWProblem(graph=g, s=s, c=c, kappa=kappa)
        report = _solved(problem, op, k, failures)
        if report is None:
            continue
        worst_resid = max(worst_resid, report.residual_inf)
        defect = kw.check_solution(problem, report.solution, op).integral_defect
        worst_defect = max(worst_defect, defect / (1.0 + abs(c) * g.volume))
    _entry(entries, "manufactured-recovery", worst_resid, 1e-8,
           "problems built from a known solution are solved back",
           *failures[:1], failed=bool(failures))
    _entry(entries, "integrated-identity", worst_defect, 1e-7,
           "accepted solutions balance the integrated equation")

    worst = 0.0
    failures = []
    for k in range(5):
        kappa = -np.abs(rng.standard_normal(n)) - 0.1
        c = float(-np.abs(rng.uniform(0.5, 2.0)))
        problem = kw.KWProblem(graph=g, s=s, c=c, kappa=kappa)
        report = _solved(problem, op, k, failures)
        if report is not None:
            phi0 = kw.auxiliary_phi0(problem, op)
            worst = max(worst, float(np.max(np.exp(-report.solution) - phi0)))
    _entry(entries, "comparison-inequality", worst, 1e-8,
           "the linear comparison function dominates exp(-u)",
           *failures[:1], failed=bool(failures))


def _embedding_checks(g, sd, s_list, operator, rng, entries):
    n = g.n
    for s in s_list:
        op = operator(s)
        # the sharp constant is a statement about the spectral power; on the
        # odd composition path that realization differs from op_matrix
        mat = g.mu[:, None] * op.power_matrix
        mat = 0.5 * (mat + mat.T)
        c_p = poincare_constant(sd, s)

        draws = rng.standard_normal((10_000, n))
        draws -= (draws @ g.mu / g.volume)[:, None]
        num = draws**2 @ g.mu
        den = ((draws @ mat) * draws).sum(axis=1)
        keep = den > 1e-300
        ratio = float(np.max(num[keep] / den[keep]))
        _entry(entries, f"s={s:g}:rayleigh-bound", ratio, c_p * (1.0 + 1e-9),
               "the sharp constant bounds every Rayleigh ratio")
        phi2 = sd.phis[:, 1]
        at_mode = mu_inner(g, phi2, phi2) / mu_inner(g, phi2, op.power_matrix @ phi2)
        _entry(entries, f"s={s:g}:rayleigh-sharpness", abs(at_mode - c_p), 1e-9 * c_p,
               "the bound is attained on the second eigenfunction")

        unit = draws / np.sqrt(den)[:, None]
        for alpha in (0.5, 1.0):
            bound = trudinger_moser_bound(g, sd, s, alpha)
            with np.errstate(over="ignore"):  # a sum beyond the double range is inf
                vals = np.exp(alpha * unit**2) @ g.mu
            _entry(entries, f"s={s:g}:moser-bound:alpha={alpha:g}",
                   float(np.max(vals)), bound,
                   "sampled exponential integrals stay below the uniform bound")

        norms = np.sqrt((num + den)[keep] / num[keep])
        _info(entries, f"s={s:g}:norm-equivalence-constant", float(np.min(norms)),
              "measured lower constant between the L2 and Sobolev norms (reported)")


def run_suite(g, s_list=(0.25, 0.5, 0.75), seed=7):
    """Run every invariant the package promises, on one graph, deterministically.

    Returns a CheckReport whose entries carry the measured defect, the
    tolerance it was held to, and a one-line citation of the property. The
    graph needs at least 2 vertices and the seed must be a nonnegative
    integer.

    One operator is built for each distinct exponent and shared by every
    check group. A Kazdan-Warner solve of the suite that raises
    CertificateUnsolvable or NotSolved fails its entry, with a witness
    naming the problem and the error, and the suite goes on; a
    NumericalError ends it.
    """
    if g.n < 2:
        raise ValidationError(f"the invariant suite needs at least 2 vertices, got {g.n}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be nonnegative and an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    sd = decompose(g)
    operator = functools.cache(functools.partial(build_operator, sd))
    report = CheckReport()
    entries = report.entries
    _calculus_checks(g, rng, entries)
    _spectral_checks(g, sd, rng, entries)
    _fractional_checks(g, sd, list(s_list), operator, rng, entries)
    _solver_checks(g, list(s_list), operator, rng, entries)
    _embedding_checks(g, sd, [s for s in s_list if s > 0], operator, rng, entries)
    return report
