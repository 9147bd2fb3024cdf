"""Finite weighted graph model and measure-weighted calculus primitives.

A graph is a quadruple (V, E, mu, w): vertices with a positive measure mu,
undirected edges with positive symmetric weights w. All vectors and matrices
index against the vertex order of the input document; that order is part of
the external contract.

A graph keeps its edges as the edge pattern alone, never as a dense n x n
weight matrix: every Laplacian and gradient coefficient comes from the CSR
arrays built on that pattern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedError,
    ParseError,
    ValidationError,
)

ADJACENCY = "adjacency-only"
ALL_PAIRS = "all-pairs"


@dataclass(frozen=True)
class Graph:
    """Connected finite weighted measured graph.

    Attributes
    ----------
    ids : tuple of str
        Vertex identifiers in document order.
    mu : ndarray (n,)
        Positive vertex measures.
    edge_pattern : tuple of ndarray
        ``(rows, cols, w, d)``, all read-only: the row and column indices of
        the nonzero entries of the symmetric edge-weight matrix in row-major
        order (each edge once in each orientation, int32, the index type
        scipy gives a matrix of this size), the weights there, and the
        weighted degrees, each the pairwise row sum
        ``weights.sum(axis=1)`` gives.
    """

    ids: tuple
    mu: np.ndarray
    edge_pattern: tuple

    @property
    def n(self):
        return len(self.ids)

    @property
    def volume(self):
        """Sum of all vertex measures."""
        return float(self.mu.sum())

    @property
    def weights(self):
        """The symmetric edge-weight matrix, zero diagonal and zero for
        non-edges, as a dense read-only n x n array built on each access.
        For inspection: the package itself works on ``edge_pattern``."""
        rows, cols, w, _ = self.edge_pattern
        weights = np.zeros((self.n, self.n))
        weights[rows, cols] = w
        weights.setflags(write=False)
        return weights

    def laplacian_matrix(self):
        """Matrix of the positive operator u -> -(Delta)u, ``sparse_laplacian`` as an array."""
        return self.sparse_laplacian.toarray()

    @cached_property
    def sparse_laplacian(self):
        """The positive Laplacian (diag(d) - w) / mu as a CSR array, built on
        the edge pattern on first access and read-only."""
        rows, cols, w, d = self.edge_pattern
        diag = np.arange(self.n, dtype=np.int32)
        return _read_only_csr(
            np.concatenate(((0.0 - w) / self.mu[rows], d / self.mu)),
            np.concatenate((rows, diag)), np.concatenate((cols, diag)), self.n,
        )

    @cached_property
    def sparse_gradient_coeff(self):
        """The gradient coefficients sqrt(w_xy / (2 mu_x)) as a CSR array,
        built on the edge pattern on first access and read-only."""
        rows, cols, w, _ = self.edge_pattern
        return _read_only_csr(np.sqrt(w / (2.0 * self.mu[rows])), rows, cols, self.n)


def _read_only_csr(data, rows, cols, n):
    import scipy.sparse  # imported on first use: it slows `import fraclap`
    # canonical CSR (sorted indices) without the entries that rounded to zero
    a = scipy.sparse.csr_array((data, (rows, cols)), shape=(n, n))
    a.eliminate_zeros()
    for arr in (a.data, a.indices, a.indptr):
        arr.setflags(write=False)
    return a


def build_graph(vertices, edges):
    """Construct and validate a Graph.

    Parameters
    ----------
    vertices : sequence of (id, mu) pairs
    edges : sequence of (src_id, dst_id, w) triples

    Raises
    ------
    ValidationError
        Nonpositive mu or w, self-loop, duplicate edge or id, or 2 d/mu overflowing.
    DisconnectedError
        If the graph is not connected.
    """
    ids = tuple(str(v) for v, _ in vertices)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate vertex ids")
    if not ids:
        raise ValidationError("graph needs at least one vertex")
    mu = np.array([float(m) for _, m in vertices], dtype=float)
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
        raise ValidationError("vertex measure mu must be positive and finite")

    index = {v: i for i, v in enumerate(ids)}
    edge_weights = {}
    for src, dst, w in edges:
        try:
            i, j = index[str(src)], index[str(dst)]
        except KeyError as exc:
            raise ValidationError(f"edge endpoint {exc} is not a vertex") from exc
        if i == j:
            raise ValidationError(f"self-loop at vertex {src!r}")
        key = (min(i, j), max(i, j))
        if key in edge_weights:
            raise ValidationError(f"duplicate edge {src!r}-{dst!r}")
        w = float(w)
        if not np.isfinite(w) or w <= 0:
            raise ValidationError(f"edge weight must be positive, got {w} on {src!r}-{dst!r}")
        edge_weights[key] = w

    _check_connected(edge_weights, ids)
    # L's entries and eigenvalues are at most max 2 d/mu, so an overflow in
    # the degree sums or in 2 d/mu is rejected here
    with np.errstate(over="ignore"):
        pattern = _edge_pattern(len(ids), edge_weights)
        bad = np.flatnonzero(~np.isfinite(2.0 * pattern[3] / mu))
    if bad.size:
        raise ValidationError(f"vertex {ids[bad[0]]!r}: 2 d/mu, d the weighted degree, must be "
                              f"a finite double; got mu={mu[bad[0]]:g}")
    mu.setflags(write=False)
    return Graph(ids=ids, mu=mu, edge_pattern=pattern)


# entries of the dense weight matrix held at once while the degrees are summed
DEGREE_BLOCK_ENTRIES = 1 << 16


def _edge_pattern(n, edge_weights):
    """The read-only ``Graph.edge_pattern`` of the weights {(i, j): w}, i < j.

    Each degree is summed over its row of the dense weight matrix, written
    a bounded block of rows at a time, so it has the bits of the pairwise
    sum ``weights.sum(axis=1)`` without an n x n array.
    """
    upper = np.array(list(edge_weights), dtype=np.int32).reshape(-1, 2).T
    half = np.fromiter(edge_weights.values(), dtype=float, count=len(edge_weights))
    rows = np.concatenate((upper[0], upper[1]))
    cols = np.concatenate((upper[1], upper[0]))
    order = np.lexsort((cols, rows))
    rows, cols, w = rows[order], cols[order], np.concatenate((half, half))[order]
    degrees = np.empty(n)
    block = np.empty((min(n, max(1, DEGREE_BLOCK_ENTRIES // n)), n))
    for lo in range(0, n, len(block)):
        hi = min(lo + len(block), n)
        a, b = np.searchsorted(rows, (lo, hi))
        block.fill(0.0)
        block[rows[a:b] - lo, cols[a:b]] = w[a:b]
        degrees[lo:hi] = block[:hi - lo].sum(axis=1)
    pattern = rows, cols, w, degrees
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def _check_connected(pairs, ids):
    """Raise DisconnectedError naming, in vertex order, every vertex that the
    edges {(i, j): w} do not join to vertex 0: a union-find with path halving."""
    parent = list(range(len(ids)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[root(i)] = root(j)
    home = root(0)
    missing = [v for i, v in enumerate(ids) if root(i) != home]
    if missing:
        raise DisconnectedError(f"graph is disconnected; unreachable: {missing}")


def load_graph(document):
    """Load a Graph from a JSON document (text or already-parsed dict).

    Expected schema::

        {"vertices": [{"id": "x1", "mu": 1.0}, ...],
         "edges": [{"src": "x1", "dst": "x2", "w": 1.0}, ...]}
    """
    data = _parse_json(document)
    try:
        vertices = [(v["id"], v["mu"]) for v in data["vertices"]]
        edges = [(e["src"], e["dst"], e["w"]) for e in data.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    return build_graph(vertices, edges)


def load_function(g, document):
    """Load a vertex function from JSON: {"values": {"x1": 0.5, ...}}.

    Every vertex id must appear exactly once.
    """
    data = _parse_json(document)
    try:
        values = data["values"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed function document: {exc}") from exc
    if set(values) != set(g.ids):
        extra = sorted(set(values) - set(g.ids))
        missing = sorted(set(g.ids) - set(values))
        raise ValidationError(
            f"function keys must match vertex ids exactly; missing={missing} extra={extra}"
        )
    u = np.array([float(values[v]) for v in g.ids])
    return as_function(g, u)


def function_document(g, u):
    """Serialize a vertex function to the JSON schema used by load_function."""
    u = as_function(g, u)
    return {"values": dict(zip(g.ids, u.tolist()))}


def _parse_json(document):
    if isinstance(document, (dict, list)):
        return document
    try:
        return json.loads(document)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def as_function(g, u):
    """Validate and coerce u into a vertex function aligned with g."""
    u = np.asarray(u, dtype=float)
    if u.shape != (g.n,):
        raise DimensionMismatch(f"expected vector of length {g.n}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise DimensionMismatch("function values must be finite")
    return u


def check_tol(tol):
    """Reject a tolerance that is not finite and positive; a NaN one would
    pass every comparison it is held to."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


@dataclass(frozen=True)
class PairwiseField:
    """Antisymmetrically generated per-vertex-pair field F(x, y).

    The component indexed by the second vertex, f_y(x) := F(x, y), realizes
    vector-valued functions with a fixed global component ordering. Zero
    diagonal; adjacency-supported fields vanish on non-edges.
    """

    entries: np.ndarray
    support: str = ADJACENCY

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionMismatch(f"field must be square, got {e.shape}")
        if np.max(np.abs(np.diagonal(e))) != 0.0:
            raise ValidationError("pairwise field must have zero diagonal")
        if self.support not in (ADJACENCY, ALL_PAIRS):
            raise ValidationError(f"unknown support class {self.support!r}")
        object.__setattr__(self, "entries", e)

    @property
    def n(self):
        return self.entries.shape[0]


def _field_entries(g, F):
    entries = F.entries if isinstance(F, PairwiseField) else np.asarray(F, dtype=float)
    if entries.shape != (g.n, g.n):
        raise DimensionMismatch(f"field shape {entries.shape} does not match n={g.n}")
    return entries


def integral(g, u):
    """Measure integral: sum of u(x) mu(x) over the vertices."""
    u = as_function(g, u)
    return float(np.dot(u, g.mu))


def mean(g, u):
    """Average of u with respect to mu."""
    return integral(g, u) / g.volume


def mu_inner(g, u, v):
    """Inner product weighted by the vertex measure."""
    return float(np.dot(as_function(g, u) * g.mu, as_function(g, v)))


def laplacian_apply(g, u):
    """Apply the positive Laplacian: result(x) = (1/mu) sum_{y~x} w_xy (u(x)-u(y))."""
    return g.sparse_laplacian @ as_function(g, u)


def iterated_laplacian(g, u, m):
    """m-fold application of Delta (the negative of laplacian_apply)."""
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    v = as_function(g, u)
    for _ in range(int(m)):
        v = -(g.sparse_laplacian @ v)
    return v


def gradient_field(g, u):
    """Gradient of u as a pairwise field: F(x,y) = sqrt(w_xy/(2 mu_x)) (u(x)-u(y))."""
    u = as_function(g, u)
    coeff = g.sparse_gradient_coeff.toarray()
    entries = coeff * (u[:, None] - u[None, :])
    return PairwiseField(entries=entries, support=ADJACENCY)


def pointwise_inner(g, F, G):
    """Pointwise inner product of two fields: result(x) = sum_y F(x,y) G(x,y)."""
    fe = _field_entries(g, F)
    ge = _field_entries(g, G)
    return (fe * ge).sum(axis=1)


def divergence(g, F):
    """Divergence of a pairwise field, the negative adjoint of the gradient.

    Satisfies the duality contract
    ``integral(divergence(F) * phi) == -integral(pointwise_inner(F, gradient(phi)))``
    for every vertex function phi. For gradient fields this recovers
    divergence(gradient(u)) == Delta u.
    """
    fe = _field_entries(g, F)
    coeff = g.sparse_gradient_coeff.toarray()
    own = (coeff * fe).sum(axis=1)
    incoming = (g.mu[:, None] * coeff * fe).sum(axis=0)
    return -(g.mu * own - incoming) / g.mu
