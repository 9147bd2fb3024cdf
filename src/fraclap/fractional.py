"""Fractional powers of the graph Laplacian.

For 0 < s < 1 the operator is nonlocal with an explicit positive symmetric
kernel; it acts as

    (-Delta)^s u(x) = (1/mu(x)) sum_{y != x} W_s(x, y) (u(x) - u(y)).

Every s > 0 is split as s = sigma + m with sigma in [0, 1) and integer m >= 0,
and the operator is the sigma-order factor K sandwiched by the order-m map.
With k = m // 2 and L = -Delta it is L^k K L^k for even m and
-L^k div(K grad) L^k for odd m, where K acts componentwise on gradient fields.
For integer s the sigma factor is the identity, so the operator is built from
sparse Laplacian products alone and equals the spectral power up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.integrate import quad
from scipy.special import gamma

from .errors import InvalidExponent, NumericalError, QuadratureError
from .graph import ALL_PAIRS, PairwiseField, as_function, gradient_field, mu_inner
from .spectral import SpectralDecomposition, gram


@dataclass(frozen=True)
class FractionalOperator:
    """Realization of the fractional Laplacian at exponent s = sigma + m.

    Attributes
    ----------
    kernel : ndarray or None
        The nonlocal coupling kernel of the sigma-order factor (the full
        s-kernel when m == 0); None for integer s, whose sigma factor is the
        identity.
    op_matrix : ndarray
        The operator actually applied: the sigma factor sandwiched by the
        order-m map (kernel assembly alone for s in (0, 1), sparse Laplacian
        products alone for integer s).
    power_matrix : ndarray
        The spectral power Phi diag(lambda^s) Phi^{-1}, computed on first
        access; for integer s it is op_matrix itself. Equal to op_matrix up
        to round-off except for non-integer s with odd m, where the two
        genuinely differ.
    power_mismatch : float
        Induced sup-norm distance between op_matrix and power_matrix,
        computed on first access: the gap for non-integer s with odd m,
        round-off elsewhere (zero for integer s).
    """

    sd: SpectralDecomposition
    s: float
    sigma: float
    m: int
    kernel: np.ndarray | None
    op_matrix: np.ndarray

    @property
    def graph(self):
        return self.sd.graph

    @cached_property
    def power_matrix(self):
        if self.is_integer_order:
            return self.op_matrix
        power = self.sd.power_matrix(self.s)
        power.setflags(write=False)
        return power

    @cached_property
    def power_mismatch(self):
        return float(np.max(np.abs(self.op_matrix - self.power_matrix).sum(axis=1)))

    @property
    def is_integer_order(self):
        """True when s is a positive integer (outside the sigma in (0,1) regime)."""
        return self.sigma == 0.0

    @property
    def sigma_matrix(self):
        """Matrix of the sigma-order factor (the operator itself when m == 0)."""
        if self.kernel is None:
            raise InvalidExponent("integer-order operator has no sigma factor")
        return _operator_from_kernel(self.graph, self.kernel)


def split_exponent(s):
    """Split s > 0 into (sigma, m) with s = sigma + m, sigma in [0, 1).

    Integer s returns sigma == 0.0, which selects the identity sigma factor.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0:
        raise InvalidExponent(f"exponent must be a positive real, got {s}")
    m = math.floor(s)
    return s - m, int(m)


def spectral_kernel(sd, sigma):
    """Kernel W(x, y) = -mu(x) mu(y) sum_i lambda_i^sigma phi_i(x) phi_i(y).

    Exactly symmetric as stored (one symmetric product) and strictly
    positive off the diagonal on a connected graph; the diagonal is zero by
    convention.
    """
    w = gram(sd.graph.mu[:, None] * sd.phis, sd.lambda_power(sigma))
    np.negative(w, out=w)
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return w


def _operator_from_kernel(g, kernel):
    # rows of (-Delta)^sigma: (1/mu) (diag(rowsum) - kernel)
    d = kernel.sum(axis=1)
    return (np.diag(d) - kernel) / g.mu[:, None]


def _laplacian_sandwich(g, inner, k):
    """L^k inner L^k as a dense array, with L the positive Laplacian applied
    as a sparse matrix: O(n^2 deg) per factor on a dense inner instead of a
    dense n^3 product. A sparse inner stays sparse until the result."""
    if k:
        lap = scipy.sparse.csr_array(g.laplacian_matrix())
        for _ in range(k):
            inner = lap @ (inner @ lap)
    return inner.toarray() if scipy.sparse.issparse(inner) else inner


def _componentwise_divergence_matrix(g, p):
    """Matrix of u -> div(P . grad u) with P applied to each global
    component, dense or sparse like P.

    The gradient field of u has components f_y(x) = c(x, y)(u(x) - u(y)) with
    c = sqrt(w/(2 mu)); P acts on each component function f_y, and the
    divergence is the negative adjoint of the gradient. c is supported on the
    edges, so every product with it costs O(n^2 deg), and the result is
    supported on pairs at most two hops apart.
    """
    mu = g.mu
    c = scipy.sparse.csr_array(np.sqrt(g.weights / (2.0 * mu[:, None])))
    pc = p @ c
    cpc = c.multiply(pc)
    own = (c @ c.T).multiply(p) - cpc
    b = c.T @ (scipy.sparse.diags_array(mu) @ p)
    incoming = c.T.multiply(b) - scipy.sparse.diags_array(cpc.T @ mu)
    div = incoming / mu[:, None] - own
    return div if scipy.sparse.issparse(p) else div.toarray()


def build_operator(sd, s):
    """Assemble the fractional Laplacian at exponent s = sigma + m > 0.

    The sigma factor K is the kernel assembly (rows of the nonlocal
    difference operator) for sigma in (0, 1) and a sparse identity for
    integer s. With k = m // 2 and L = -Delta, even m composes through
    functions, L^k K L^k, and odd m routes through gradient fields,
    -L^k div(K grad) L^k. Integer s is thus built from sparse Laplacian
    products and equals the spectral power up to round-off.

    The spectral power and its gap to the assembled operator are computed on
    first access (``power_matrix``, ``power_mismatch``); for non-integer s
    with odd m the two are genuinely different operators and the gap is
    recorded, not asserted away.
    """
    sigma, m = split_exponent(s)
    g = sd.graph
    if sigma == 0.0:
        kernel = None
        inner = scipy.sparse.eye_array(g.n, format="csr")
    else:
        kernel = spectral_kernel(sd, sigma)
        inner = _operator_from_kernel(g, kernel)
    if m % 2:
        inner = -_componentwise_divergence_matrix(g, inner)
    op = _laplacian_sandwich(g, inner, m // 2)
    op.setflags(write=False)
    return FractionalOperator(
        sd=sd, s=float(s), sigma=sigma, m=m, kernel=kernel, op_matrix=op,
    )


def frac_apply(op, u, debug=False):
    """Apply the fractional Laplacian to a vertex function.

    With ``debug=True`` and s in (0, 1) the image is computed both through the
    kernel sum and through the spectral expansion, and the two must agree.
    """
    u = as_function(op.graph, u)
    out = op.op_matrix @ u
    if debug and op.m == 0 and op.sigma > 0.0:
        alt = op.sd.synthesize(op.sd.lambda_power(op.s) * op.sd.coefficients(u))
        tol = 1e-9 * (1.0 + float(np.max(np.abs(out))))
        if np.max(np.abs(out - alt)) > tol:
            raise NumericalError(
                "kernel and spectral routes disagree: "
                f"{np.max(np.abs(out - alt)):.3e} > {tol:.3e}"
            )
    return out


def _order_m_columns(op, u):
    """The order-m map the sigma factor acts on, as columns: Delta^k u
    (k = m // 2) as one column for even m, the n components of its gradient
    field for odd m."""
    g = op.graph
    f = as_function(g, u)
    lap = g.laplacian_matrix()
    for _ in range(op.m // 2):
        f = -(lap @ f)
    return gradient_field(g, f).entries if op.m % 2 else f[:, None]


def frac_gradient(op, u):
    """Fractional gradient of u.

    Return type depends on the regime:

    * integer s: the plain m-order gradient (PairwiseField for odd s,
      a vertex function for even s).
    * s = sigma + m with sigma in (0, 1): the all-pairs sigma-gradient
      sqrt(W/(2 mu)) (f(x) - f(y)) of each global component f of the
      m-order gradient; a single PairwiseField for even m (m == 0 included),
      a list of PairwiseField (one per component, in vertex order) for odd m.
    """
    cols = _order_m_columns(op, u)
    if op.kernel is None:
        return PairwiseField(entries=cols) if op.m % 2 else cols[:, 0]
    coeff = np.sqrt(op.kernel / (2.0 * op.graph.mu[:, None]))
    fields = [
        PairwiseField(entries=coeff * (f[:, None] - f[None, :]), support=ALL_PAIRS)
        for f in cols.T
    ]
    return fields if op.m % 2 else fields[0]


def frac_inner(op, u, v):
    """Pointwise inner product of the fractional gradients of u and v.

    Integrating this against mu reproduces the energy pairing
    ``integral(v * frac_apply(op, u))`` in every exponent regime.
    """
    fu = _order_m_columns(op, u)
    fv = _order_m_columns(op, v)
    r = (fu * fv).sum(axis=1)
    if op.kernel is None:
        return r
    # summed over the columns f, h:
    # (1/(2 mu)) sum_y W(x,y) (f(x)-f(y)) (h(x)-h(y)), vectorized over x
    w = op.kernel
    cross = (fu * (w @ fv) + fv * (w @ fu)).sum(axis=1)
    return (r * w.sum(axis=1) + w @ r - cross) / (2.0 * op.graph.mu)


def dirichlet_energy(op, u):
    """Fractional Dirichlet energy: integral of u times its image."""
    u = as_function(op.graph, u)
    return mu_inner(op.graph, u, op.op_matrix @ u)


def kernel_w_quadrature(sd, s, tol=1e-8):
    """Evaluate the defining time integral of the kernel by adaptive quadrature.

    For each pair x != y,

        W(x, y) = (s / Gamma(1-s)) mu(x) mu(y) * I,
        I = integral_0^inf p(t, x, y) t^{-1-s} dt,

    with p the heat kernel. Serves as the independent oracle for the spectral
    kernel formula. The integrable endpoint singularities are handled with
    algebraic-weight quadrature on [0, 1] and a 1/t substitution for the tail.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise InvalidExponent(f"quadrature kernel needs 0 < s < 1, got {s}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = sd.graph
    n = g.n
    lam = sd.lambdas
    live = lam > 0
    lam_pos = lam[live]
    prefactor = s / gamma(1.0 - s)
    out = np.zeros((n, n))
    err_budget = tol / max(prefactor * float(np.max(np.outer(g.mu, g.mu))), 1e-300)
    epsabs = err_budget / 8.0

    for x in range(n):
        for y in range(x + 1, n):
            coeffs = sd.phis[x, live] * sd.phis[y, live]

            def head(t, c=coeffs):
                # p(t) / t with the constant mode cancelled analytically
                if t <= 0.0:
                    return float(np.dot(-lam_pos, c))
                return float(np.dot(np.expm1(-lam_pos * t), c)) / t

            def tail(tau, c=coeffs):
                if tau <= 0.0:
                    return float(-np.sum(c))
                return float(np.dot(np.expm1(-lam_pos / tau), c))

            i1, e1 = quad(
                head, 0.0, 1.0, weight="alg", wvar=(-s, 0.0),
                epsabs=epsabs, epsrel=1e-12, limit=200,
            )
            i2, e2 = quad(
                tail, 0.0, 1.0, weight="alg", wvar=(s - 1.0, 0.0),
                epsabs=epsabs, epsrel=1e-12, limit=200,
            )
            scale = prefactor * g.mu[x] * g.mu[y]
            if scale * (e1 + e2) > tol:
                raise QuadratureError(
                    f"requested tolerance {tol} unreached for pair ({x}, {y}): "
                    f"error estimate {scale * (e1 + e2):.3e}"
                )
            val = scale * (i1 + i2)
            out[x, y] = out[y, x] = val
    return out


@dataclass(frozen=True)
class LimitEntry:
    s: float
    to_laplacian: float
    to_meanzero_identity: float


@dataclass(frozen=True)
class LimitReport:
    """Residuals of the operator against its two exponent limits.

    ``to_laplacian`` measures the distance (induced sup norm) to the graph
    Laplacian, relevant as s -> 1; ``to_meanzero_identity`` measures the
    distance to the mean-removing identity, relevant as s -> 0. Monotone
    shrinkage toward the endpoints is reported, never asserted.
    """

    entries: tuple
    monotone_toward_one: bool
    monotone_toward_zero: bool

    def to_dict(self):
        return {
            "entries": [
                {
                    "s": e.s,
                    "to_laplacian": e.to_laplacian,
                    "to_meanzero_identity": e.to_meanzero_identity,
                }
                for e in self.entries
            ],
            "monotone_toward_one": self.monotone_toward_one,
            "monotone_toward_zero": self.monotone_toward_zero,
        }


def _induced_inf(matrix):
    return float(np.max(np.abs(matrix).sum(axis=1)))


def limit_residuals(sd, s_list):
    """Measure how the fractional operator approaches its endpoint limits."""
    g = sd.graph
    lap = g.laplacian_matrix()
    phi1 = sd.phis[:, 0]
    meanzero = np.eye(g.n) - np.outer(phi1, phi1 * g.mu)
    entries = []
    for s in sorted(float(v) for v in s_list):
        if not 0.0 < s < 1.0:
            raise InvalidExponent(f"limit residuals need s in (0, 1), got {s}")
        ls = build_operator(sd, s).op_matrix
        entries.append(
            LimitEntry(
                s=s,
                to_laplacian=_induced_inf(ls - lap),
                to_meanzero_identity=_induced_inf(ls - meanzero),
            )
        )
    to_lap = [e.to_laplacian for e in entries]
    to_id = [e.to_meanzero_identity for e in entries]
    return LimitReport(
        entries=tuple(entries),
        monotone_toward_one=all(b <= a for a, b in zip(to_lap, to_lap[1:])),
        monotone_toward_zero=all(b >= a for a, b in zip(to_id, to_id[1:])),
    )
