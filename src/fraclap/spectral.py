"""Eigendecomposition of the graph Laplacian in the measure-weighted inner
product, heat kernel and heat semigroup."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .graph import Graph, as_function

# Eigenvalues at or below ZERO_EIGENVALUE_REL * lambda_max count as zero:
# relative at every scale of the weights, and a single vertex (lambda_max = 0)
# keeps its one zero mode. Needed so that lambda**s at small s does not
# amplify eigensolver noise.
ZERO_EIGENVALUE_REL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs (lambda_i, phi_i) of the positive Laplacian, mu-orthonormal.

    lambdas are ascending, and lambdas[0] == 0 is the one zero mode, as
    ``decompose`` guarantees; column i of ``phis`` is the eigenfunction
    phi_i. Orthonormality is with respect to the measure-weighted inner
    product, so ``phis.T @ diag(mu) @ phis == I``.
    """

    graph: Graph
    lambdas: np.ndarray
    phis: np.ndarray

    @property
    def n(self):
        return self.graph.n

    @cached_property
    def sigma_factors(self):
        """Memo of the read-only arrays ``build_operator`` derives from one
        fractional part sigma, keyed by (name, sigma). Values are held
        weakly: an entry lives only while some operator holds its array."""
        return weakref.WeakValueDictionary()

    def coefficients(self, u):
        """Expansion coefficients <u, phi_i> in the mu-inner product."""
        u = as_function(self.graph, u)
        return self.phis.T @ (self.graph.mu * u)

    def synthesize(self, coeffs):
        return self.phis @ np.asarray(coeffs, dtype=float)

    def lambda_power(self, s, zero=0.0):
        """lambda_i**s per eigenpair, taken as ``zero`` on the zero mode for every s."""
        lam = self.lambdas.copy()
        lam[0] = 1.0
        power = lam ** float(s)
        power[0] = zero
        return power


def gram(factor, weights):
    """factor diag(weights) factor^T for nonnegative weights, as B B^T with
    B = factor diag(sqrt(weights)): one symmetric rank-k update (half the
    work of a general product) and exactly symmetric as stored."""
    b = factor * np.sqrt(weights)[None, :]
    return b @ b.T


def decompose(g):
    """Solve the mu-weighted eigenproblem for the positive Laplacian.

    Uses the symmetric similarity transform S = U^{1/2} L U^{-1/2}, which has
    the same spectrum as L and orthonormal eigenvectors q_i; the mu-orthonormal
    eigenfunctions are phi_i = U^{-1/2} q_i. Sign convention: the first
    non-negligible entry of each eigenfunction is positive. Degenerate
    eigenspaces come back as an arbitrary mu-orthonormal basis. Exactly one
    eigenvalue may fall at or below ZERO_EIGENVALUE_REL * lambda_max
    (NumericalError otherwise); it is set to 0 and, the eigenvalues being
    ascending, is index 0.

    S is written only on the diagonal and the edges, each entry as the mean
    of its two one-sided scalings so that it is exactly symmetric; apart
    from S and the returned phis, every step is O(n) or O(edges).
    """
    rows, cols, w, d = g.edge_pattern
    root_mu = np.sqrt(g.mu)
    sym = np.zeros((g.n, g.n))
    sym[rows, cols] = 0.5 * ((0.0 - w) / root_mu[rows] / root_mu[cols]
                             + (0.0 - w) / root_mu[cols] / root_mu[rows])
    np.fill_diagonal(sym, d / root_mu / root_mu)
    try:
        lam, phis = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    del sym  # freed before the sign fix allocates its n x n temporary

    tiny = ZERO_EIGENVALUE_REL * float(lam[-1])
    zeros = np.count_nonzero(lam <= tiny)
    if zeros != 1:
        raise NumericalError(
            f"{zeros} eigenvalues fall at or below the zero threshold "
            f"{tiny:g} (ZERO_EIGENVALUE_REL * lambda_max), but a connected graph has one "
            "zero mode; the decomposition cannot go on"
        )
    lam[0] = 0.0  # ascending: the one zero mode is index 0
    phis /= root_mu[:, None]

    # fix signs: first entry of each column that is clearly nonzero goes positive
    mag = np.abs(phis)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    phis *= np.where(phis[first, np.arange(g.n)] < 0, -1.0, 1.0)

    lam.setflags(write=False)
    phis.setflags(write=False)
    return SpectralDecomposition(graph=g, lambdas=lam, phis=phis)


def _check_time(t):
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time t must be finite and nonnegative, got {t}")
    return t


def _decay(sd, t):
    """exp(-lambda_i t) for a checked time t. A huge t overflows lambda t to
    inf, whose exponential is the right limit 0, so that overflow is silent."""
    with np.errstate(over="ignore"):
        return np.exp(-sd.lambdas * t)


def heat_kernel(sd, t):
    """Heat kernel p(t, x, y) = sum_i exp(-lambda_i t) phi_i(x) phi_i(y).

    Assembled by one symmetric product, so p(t, x, y) == p(t, y, x) exactly
    as stored.
    """
    return gram(sd.phis, _decay(sd, _check_time(t)))


def heat_apply(sd, t, u0):
    """Evolve u0 under the heat semigroup for time t.

    Returns the unique bounded solution of du/dt = Delta u at time t with
    initial data u0. Constants are preserved and mass is conserved.
    """
    t = _check_time(t)
    u0 = as_function(sd.graph, u0)
    if t == 0.0:
        return u0.copy()
    return sd.synthesize(sd.coefficients(u0) * _decay(sd, t))
