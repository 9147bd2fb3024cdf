"""Correctness checks run on every job's output, outside the timed calls.

Each check raises CheckFailed with the reason. Where a closed form exists the
reference comes from the generated inputs (gen_inputs), not from the code
under test; Kazdan-Warner solutions are re-checked with fraclap's own
``check_solution``, as its contract prescribes.
"""

from __future__ import annotations

import json
import math

import numpy as np

import fraclap
from gen_inputs import spectral_power

# Relative tolerance for dense-linear-algebra identities at n <= a few thousand.
RTOL = 1e-7
# Absolute agreement required between the quadrature oracle and the kernel.
ORACLE_ATOL = 1e-6
# Exit codes the README documents; anything else breaks the CLI contract.
EXIT_CONTRACT = (0, 1, 2, 3, 4)


class CheckFailed(Exception):
    """A job's output is wrong (not merely absent)."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, scale, what, rtol=RTOL):
    err = float(np.max(np.abs(np.asarray(actual, float) - np.asarray(expected, float))))
    bound = rtol * max(1.0, float(scale))
    require(math.isfinite(err) and err <= bound, f"{what}: error {err:.3e} > {bound:.3e}")


def spot_indices(n):
    """Eigenpairs spot-checked per decomposition: lowest, middle, highest."""
    return sorted({1, n // 2, n - 1})


def norm_inf(mat):
    return float(np.max(np.abs(mat).sum(axis=1)))


def check_graph(g, gi):
    require(tuple(g.ids) == gi.ids, "vertex ids or order differ from the document")
    require(np.array_equal(g.mu, gi.mu), "mu differs from the document")
    require(np.array_equal(g.weights, gi.weight_matrix), "weights differ from the document")


def check_eigenpairs(gi, lambdas, phis):
    """lambdas ascending from 0; spot eigenpairs satisfy L phi = lambda phi
    with mu-norm 1, against the Laplacian built from the generated edges."""
    lambdas = np.asarray(lambdas, float)
    phis = np.asarray(phis, float)
    require(lambdas.shape == (gi.n,) and phis.shape == (gi.n, gi.n), "wrong shape")
    require(bool(np.all(np.diff(lambdas) >= 0)), "eigenvalues not ascending")
    require(abs(lambdas[0]) <= RTOL * lambdas[-1], "lambda_0 is not zero")
    lap = gi.laplacian
    scale = norm_inf(lap)
    for i in spot_indices(gi.n):
        phi = phis[:, i]
        close(phi @ (gi.mu * phi), 1.0, 1.0, f"mu-norm of phi_{i}")
        close(lap @ phi, lambdas[i] * phi, scale * np.max(np.abs(phi)), f"L phi_{i}")


def check_operator(op, sd):
    """op . phi_i = lambda_i^s phi_i on spot eigenpairs of the (checked)
    decomposition; on the odd-m path, where the composition differs from the
    spectral power by design, the identity is checked on power_matrix and the
    composition must be mu-self-adjoint and annihilate constants."""
    odd = op.sigma > 0 and op.m % 2 == 1
    mat = op.power_matrix if odd else op.op_matrix
    scale = norm_inf(mat)
    pow_lam = spectral_power(sd.lambdas, op.s)
    for i in spot_indices(sd.n):
        phi = sd.phis[:, i]
        close(mat @ phi, pow_lam[i] * phi, scale * np.max(np.abs(phi)), f"op phi_{i}")
    if odd:
        a = op.op_matrix
        weighted = op.graph.mu[:, None] * a
        norm = norm_inf(weighted)
        close(weighted, weighted.T, norm, "mu-symmetry of the odd composition")
        close(a.sum(axis=1), 0.0, norm_inf(a), "odd composition on constants")


def check_apply(image, op, u):
    close(image, op.op_matrix @ u, norm_inf(op.op_matrix) * np.max(np.abs(u)), "frac_apply")


def check_poisson(u, f, mu, power_apply, power_norm):
    """Mean zero and (-Delta)^s u = f - mean(f) in the spectral sense."""
    u = np.asarray(u, float)
    close(mu @ u / mu.sum(), 0.0, np.max(np.abs(u)), "mean of the poisson solution")
    residual = power_apply(u) - (f - (mu @ f) / mu.sum())
    close(residual, 0.0, power_norm * np.max(np.abs(u)) + np.max(np.abs(f)), "poisson residual")


def check_heat(out, u0, t, lambdas, phis, mu):
    expected = phis @ (np.exp(-np.asarray(lambdas) * t) * (phis.T @ (mu * u0)))
    close(out, expected, np.max(np.abs(u0)), "heat semigroup")


def check_kw(problem, solution, op, tol):
    """The solution's residual, re-checked by check_solution, is <= tol."""
    require(solution is not None, "no solution returned")
    residual = fraclap.check_solution(problem, solution, op).residual_inf
    require(residual <= tol, f"re-checked residual {residual:.3e} > tol {tol:g}")


def check_threshold(est, problem_at, op, tol, residual_tol):
    """Bracket of width <= tol whose ends were probed (c_low failed, c_high
    solved), with the solution at c_high re-checked."""
    require(not est.cap_reached, "probe cap reached")
    require(est.c_low < est.c_high < 0, f"bad bracket [{est.c_low}, {est.c_high}]")
    require(est.c_high - est.c_low <= tol, f"bracket width {est.c_high - est.c_low:.3e} > {tol:g}")
    probes = dict(est.probes)
    require(probes.get(est.c_low) is False and probes.get(est.c_high) is True,
            "bracket ends disagree with the probe log")
    check_kw(problem_at(est.c_high), est.attained_solution_at_threshold, op, residual_tol)


def check_kernel(kernel, gi, s):
    """Symmetric, zero diagonal, nonnegative, and its operator
    (diag(K 1) - K) / mu has eigenpairs (lambda_i^s, phi_i)."""
    kernel = np.asarray(kernel, float)
    require(kernel.shape == (gi.n, gi.n), "wrong shape")
    require(np.array_equal(kernel, kernel.T), "kernel not symmetric")
    require(not np.any(np.diag(kernel)), "kernel diagonal not zero")
    require(float(np.min(kernel)) >= -RTOL * float(np.max(kernel)), "negative kernel entry")
    a = (np.diag(kernel.sum(axis=1)) - kernel) / gi.mu[:, None]
    lam, phis = gi.spectrum
    pow_lam = spectral_power(lam, s)
    for i in spot_indices(gi.n):
        close(a @ phis[:, i], pow_lam[i] * phis[:, i], norm_inf(a) * np.max(np.abs(phis[:, i])),
              f"kernel operator on phi_{i}")


def check_oracle(kernel, gi, s):
    lam, phis = gi.spectrum
    ref = -np.outer(gi.mu, gi.mu) * ((phis * spectral_power(lam, s)) @ phis.T)
    np.fill_diagonal(ref, 0.0)
    err = float(np.max(np.abs(np.asarray(kernel, float) - ref)))
    require(err <= ORACLE_ATOL, f"quadrature kernel off by {err:.3e}")


def load_output(path):
    """Parse a CLI JSON output, refusing any non-finite number."""
    def finite(text):
        x = float(text)
        require(math.isfinite(x), f"non-finite number {text} in output")
        return x

    def refuse(name):
        raise CheckFailed(f"non-finite constant {name} in output")

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from exc
