"""Finite weighted graph model and measure-weighted calculus primitives.

A graph is a quadruple (V, E, mu, w): vertices with a positive measure mu,
undirected edges with positive symmetric weights w. All vectors and matrices
index against the vertex order of the input document; that order is part of
the external contract.

The weight matrix is the input document's. Every Laplacian and gradient
coefficient comes from the CSR arrays built on its edge pattern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

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
    weights : ndarray (n, n)
        The input document's symmetric edge-weight matrix, zero diagonal,
        zero for non-edges. Only ``edge_pattern`` reads it.
    """

    ids: tuple
    mu: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return len(self.ids)

    @property
    def volume(self):
        """Sum of all vertex measures."""
        return float(self.mu.sum())

    def laplacian_matrix(self):
        """Matrix of the positive operator u -> -(Delta)u, ``sparse_laplacian`` as an array."""
        return self.sparse_laplacian.toarray()

    @cached_property
    def edge_pattern(self):
        """The edge pattern from one scan of ``weights``, computed on first
        access: row and column indices of the nonzero weights in row-major
        order, the weights there, and the weighted degrees
        ``weights.sum(axis=1)``, all read-only.

        The indices are int32, the index type scipy gives a matrix of this
        size, so the sparse matrices built from them keep int32 indices.
        """
        rows, cols = (i.astype(np.int32) for i in np.nonzero(self.weights))
        pattern = rows, cols, self.weights[rows, cols], self.weights.sum(axis=1)
        for arr in pattern:
            arr.setflags(write=False)
        return pattern

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
        Nonpositive mu or w, self-loop, duplicate edge or duplicate id.
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

    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    weights = np.zeros((n, n))
    seen = set()
    for src, dst, w in edges:
        try:
            i, j = index[str(src)], index[str(dst)]
        except KeyError as exc:
            raise ValidationError(f"edge endpoint {exc} is not a vertex") from exc
        if i == j:
            raise ValidationError(f"self-loop at vertex {src!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"duplicate edge {src!r}-{dst!r}")
        seen.add(key)
        w = float(w)
        if not np.isfinite(w) or w <= 0:
            raise ValidationError(f"edge weight must be positive, got {w} on {src!r}-{dst!r}")
        weights[i, j] = weights[j, i] = w

    _check_connected(seen, ids)
    weights.setflags(write=False)
    mu.setflags(write=False)
    return Graph(ids=ids, mu=mu, weights=weights)


def _check_connected(pairs, ids):
    n = len(ids)
    ends = np.array(list(pairs), dtype=int).reshape(-1, 2).T
    adjacency = scipy.sparse.coo_array((np.ones(ends.shape[1]), tuple(ends)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=False)
    unreachable = np.nonzero(labels != labels[0])[0]
    if unreachable.size:
        missing = [ids[i] for i in unreachable]
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
