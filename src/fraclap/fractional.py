"""Fractional powers of the graph Laplacian.

For 0 < s < 1 the operator is nonlocal with an explicit positive symmetric
kernel; it acts as

    (-Delta)^s u(x) = (1/mu(x)) sum_{y != x} W_s(x, y) (u(x) - u(y)).

Every s > 0 is split as s = sigma + m with sigma in [0, 1) and integer m >= 0,
and the operator is the sigma-order factor K sandwiched by the order-m map.
With k = m // 2 and L = -Delta it is L^k K L^k for even m and
-L^k div(K grad) L^k for odd m, where K acts componentwise on gradient fields.
For integer s the operator is the Laplacian power L^m, built from sparse
Laplacian products alone, and equals the spectral power up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidExponent, QuadratureError
from .graph import (PairwiseField, as_function, check_tol, gradient_field,
                    iterated_laplacian, mu_inner)
from .spectral import SpectralDecomposition


@dataclass(frozen=True)
class FractionalOperator:
    """Realization of the fractional Laplacian at exponent s = sigma + m.

    Attributes
    ----------
    kernel : ndarray or None
        The nonlocal coupling kernel of the sigma-order factor (the full
        s-kernel when m == 0); None for integer s, whose sigma factor is the
        identity. Read-only, and shared by every operator built on the same
        decomposition with the same sigma (s = 0.5, 1.5 and 2.5 hold one
        array).
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
    energy_matrix : ndarray
        The matrix 0.5 (M A + (M A)^T) of the energy pairing <u, A v>_mu,
        with A = op_matrix and M = diag(mu), computed on first access and
        read-only. It is exactly symmetric: the positive-c and zero-c
        objectives use it as their quadratic form, and every linear system
        the Kazdan-Warner solvers form is it plus a diagonal shift (the
        trust-region preconditioner and the positive-c certificate add
        rank-one terms).
    energy_is_finite : bool
        Whether every entry of energy_matrix is finite, tested once on first
        access, so that the factorizations of it need no per-call scan.
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
        if self.kernel is None:  # integer s
            return self.op_matrix
        power = self.sd.power_matrix(self.s)
        power.setflags(write=False)
        return power

    @cached_property
    def power_mismatch(self):
        return _induced_inf(self.op_matrix - self.power_matrix)

    @cached_property
    def energy_matrix(self):
        form = self.graph.mu[:, None] * self.op_matrix
        form = 0.5 * (form + form.T)
        form.setflags(write=False)
        return form

    @cached_property
    def energy_is_finite(self):
        return bool(np.isfinite(self.energy_matrix).all())


def _induced_inf(matrix):
    """The induced sup norm of a matrix: its largest absolute row sum."""
    return float(np.max(np.abs(matrix).sum(axis=1)))


def split_exponent(s):
    """Split s > 0 into (sigma, m) with s = sigma + m, sigma in [0, 1).

    Integer s returns sigma == 0.0; its operator is the Laplacian power L^m.
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
    # gram's B = diag(mu) Phi diag(sqrt(lambda^sigma)), scaled in place so
    # that no second n x n factor is alive next to it
    b = sd.graph.mu[:, None] * sd.phis
    b *= np.sqrt(sd.lambda_power(sigma))[None, :]
    w = b @ b.T
    del b
    np.negative(w, out=w)
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return w


def _operator_from_kernel(g, kernel):
    # rows of (-Delta)^sigma: (1/mu) (diag(rowsum) - kernel), written in
    # place; 0 - kernel keeps a zero entry +0.0
    rows = np.subtract(0.0, kernel)
    np.fill_diagonal(rows, kernel.sum(axis=1))
    rows /= g.mu[:, None]
    return rows


def _sigma_factor(sd, name, sigma, build):
    """The read-only array ``name`` ("kernel", or the operator "rows") of the
    sigma-order factor, built by build() once for all operators on sd with
    this sigma.

    The memo on sd holds it weakly, so it lives only while some operator
    holds it (as its kernel, or as its op_matrix when m == 0): a sweep over
    sigma pins no array that the operators do not.
    """
    memo = sd.sigma_factors
    value = memo.get((name, sigma))
    if value is None:
        value = memo[(name, sigma)] = build()
        value.setflags(write=False)
    return value


def _laplacian_sandwich(g, inner, k):
    """L^k inner L^k as a dense array, with L the positive Laplacian applied
    as a sparse matrix: O(n^2 deg) per factor on a dense inner instead of a
    dense n^3 product. A sparse inner stays sparse until the result."""
    import scipy.sparse  # imported on first use: it slows `import fraclap`
    if k:
        lap = g.sparse_laplacian
        for _ in range(k):
            inner = lap @ (inner @ lap)
    return inner.toarray() if scipy.sparse.issparse(inner) else inner


def _odd_order_factor(g, kernel):
    """The positive odd-order factor A = -div(P grad) as a dense array, with
    P the sigma-order factor of the kernel K applied to each global component.

    The gradient field of u has components f_y(x) = c(x, y)(u(x) - u(y)) with
    c = sqrt(w/(2 mu)), and the divergence is the negative adjoint of the
    gradient. P is mu-self-adjoint: M P = S = diag(r) - K with r = K 1 and
    M = diag(mu). So the energy form of A is symmetric,

        M A = S o (c c^T) - Q - Q^T + diag(1^T Q),    Q = c o (S c),

    with o the entrywise product, and A couples pairs at most two hops apart.
    S c = r o c - K c is the one product with c, O(n nnz(c)), formed as
    (c^T K)^T on the C-ordered symmetric K, and is read on the pattern of c.
    """
    c = g.sparse_gradient_coeff
    r = kernel.sum(axis=1)
    edges = c.tocoo()
    x, y = edges.coords
    q = edges.data * (r[x] * edges.data - (c.T @ kernel)[y, x])
    cc = (c @ c.T).tocoo()
    form = np.zeros(c.shape)
    form[cc.coords] = cc.data * -kernel[cc.coords]  # -(K o c c^T); K has a zero diagonal
    form[x, y] -= q
    form[y, x] -= q
    form[np.diag_indices(g.n)] += r * cc.diagonal() + np.bincount(y, q, minlength=g.n)
    form /= g.mu[:, None]
    return form


def build_operator(sd, s):
    """Assemble the fractional Laplacian at exponent s = sigma + m > 0.

    With k = m // 2 and L = -Delta, even m composes through functions,
    L^k K L^k, and odd m routes through gradient fields, -L^k div(K grad) L^k.
    For sigma in (0, 1) the sigma factor K is the kernel assembly (rows of
    the nonlocal difference operator), and the kernel is shared by every
    operator on sd with the same sigma; odd m reads the kernel alone. Integer
    s is the Laplacian power L^m, built from sparse Laplacian products, and
    equals the spectral power up to round-off.

    The spectral power and its gap to the assembled operator are computed on
    first access (``power_matrix``, ``power_mismatch``); for non-integer s
    with odd m the two are genuinely different operators and the gap is
    recorded, not asserted away.

    An s for which lambda^s overflows, or underflows to 0, on some nonzero
    eigenvalue raises InvalidExponent before any product is formed.
    """
    sigma, m = split_exponent(s)
    with np.errstate(over="ignore", under="ignore"):
        powers = sd.lambda_power(s)[1:]
    if not np.all(np.isfinite(powers) & (powers > 0)):
        raise InvalidExponent(
            f"exponent s={s:g} is out of range on this graph: lambda^s overflows "
            "or underflows to 0 on a nonzero eigenvalue"
        )
    g = sd.graph
    if sigma == 0.0:
        import scipy.sparse  # imported on first use: it slows `import fraclap`
        kernel = None
        inner = g.sparse_laplacian if m % 2 else scipy.sparse.eye_array(g.n, format="csr")
    else:
        kernel = _sigma_factor(sd, "kernel", sigma, lambda: spectral_kernel(sd, sigma))
        if m % 2:
            inner = _odd_order_factor(g, kernel)
        else:
            inner = _sigma_factor(sd, "rows", sigma, lambda: _operator_from_kernel(g, kernel))
    op = _laplacian_sandwich(g, inner, m // 2)
    op.setflags(write=False)
    return FractionalOperator(
        sd=sd, s=float(s), sigma=sigma, m=m, kernel=kernel, op_matrix=op,
    )


def frac_apply(op, u):
    """Apply the fractional Laplacian to a vertex function: op_matrix @ u."""
    return op.op_matrix @ as_function(op.graph, u)


def _order_m_columns(op, u):
    """The order-m map the sigma factor acts on, as columns: Delta^k u
    (k = m // 2) as one column for even m, the n components of its gradient
    field for odd m."""
    g = op.graph
    k = op.m // 2
    f = iterated_laplacian(g, u, k) if k else as_function(g, u)
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
    fields = [PairwiseField(entries=coeff * (f[:, None] - f[None, :])) for f in cols.T]
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
    kernel formula. Off the diagonal p(t, x, y) is the sum over lambda_i > 0 of
    (exp(-lambda_i t) - 1) phi_i(x) phi_i(y), so I = sum_i J_i phi_i(x) phi_i(y):
    one scalar integral J_i per nonzero eigenvalue (algebraic-weight quadrature
    on [0, 1], a 1/t substitution for the tail), then one assembly. With err_i
    the error estimate of J_i, pair (x, y) is off by at most
    (s / Gamma(1-s)) mu(x) mu(y) sum_i err_i |phi_i(x) phi_i(y)|; QuadratureError
    names the worst pair when that exceeds tol.
    """
    # imported on first use: only this oracle needs them, and they slow `import fraclap`
    from scipy.integrate import quad
    from scipy.special import gamma

    s = float(s)
    if not 0.0 < s < 1.0:
        raise InvalidExponent(f"quadrature kernel needs 0 < s < 1, got {s}")
    check_tol(tol)
    g = sd.graph
    phis = sd.phis[:, 1:]
    prefactor = s / gamma(1.0 - s)
    # mu-orthonormality gives sum_i |phi_i(x) phi_i(y)| <= 1/sqrt(mu(x) mu(y)),
    # so errors below epsabs per integral keep every pair's bound below tol / 2
    opts = dict(epsabs=tol / (4.0 * prefactor * float(np.max(g.mu))), epsrel=1e-12, limit=200)
    j = np.empty(phis.shape[1])
    err = np.empty_like(j)
    for i, lam in enumerate(sd.lambdas[1:]):
        # (exp(-lam t) - 1) t^{-1-s} on [0, 1], and on [1, inf) after t = 1/tau
        head, e1 = quad(lambda t: math.expm1(-lam * t) / t if t else -lam, 0.0, 1.0,
                        weight="alg", wvar=(-s, 0.0), **opts)
        tail, e2 = quad(lambda tau: math.expm1(-lam / tau) if tau else -1.0, 0.0, 1.0,
                        weight="alg", wvar=(s - 1.0, 0.0), **opts)
        j[i], err[i] = head + tail, e1 + e2
    scale = prefactor * np.outer(g.mu, g.mu)
    bound = np.triu(scale * ((np.abs(phis) * err) @ np.abs(phis).T), 1)
    x, y = np.unravel_index(np.argmax(bound), bound.shape)
    if bound[x, y] > tol:
        raise QuadratureError(
            f"requested tolerance {tol} unreached for pair ({x}, {y}): "
            f"error estimate {bound[x, y]:.3e}"
        )
    # the upper triangle, mirrored: exactly symmetric with a zero diagonal
    out = np.triu(scale * ((phis * j) @ phis.T), 1)
    return out + out.T


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
