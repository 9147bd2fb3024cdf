"""Seeded benchmark inputs: connected weighted graphs and vertex functions.

Every draw comes from the workload seed, so one seed always gives the same
inputs. fraclap only sees the generated JSON documents and arrays; the
reference quantities the checks need (Laplacian, eigendecomposition) are
computed here from the generated data, independently of fraclap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Random edges added on top of the spanning path, per vertex.
EXTRA_EDGES_PER_VERTEX = 2


@dataclass
class GraphInput:
    ids: tuple
    mu: np.ndarray
    edges: np.ndarray  # (m, 2) vertex indices, src < dst
    w: np.ndarray

    @property
    def n(self):
        return len(self.ids)

    def document(self):
        """The graph as fraclap's JSON graph document."""
        return json.dumps({
            "vertices": [{"id": v, "mu": float(m)} for v, m in zip(self.ids, self.mu)],
            "edges": [
                {"src": self.ids[a], "dst": self.ids[b], "w": float(x)}
                for (a, b), x in zip(self.edges.tolist(), self.w)
            ],
        })

    def function_document(self, values):
        """A vertex function as fraclap's JSON function document."""
        return json.dumps({"values": {v: float(x) for v, x in zip(self.ids, values)}})

    def vector(self, document):
        """Parsed function document back to a vector in vertex order."""
        return np.array([document["values"][v] for v in self.ids], dtype=float)

    @cached_property
    def weight_matrix(self):
        w = np.zeros((self.n, self.n))
        a, b = self.edges.T
        w[a, b] = w[b, a] = self.w
        return w

    @cached_property
    def laplacian(self):
        """Dense matrix of the positive Laplacian u -> -(Delta)u."""
        w = self.weight_matrix
        return (np.diag(w.sum(axis=1)) - w) / self.mu[:, None]

    @cached_property
    def spectrum(self):
        """Reference (lambdas, phis): mu-orthonormal eigenpairs, ascending."""
        w = self.weight_matrix
        root = np.sqrt(self.mu)
        lam, q = np.linalg.eigh((np.diag(w.sum(axis=1)) - w) / np.outer(root, root))
        lam = np.where(lam > 1e-10 * lam[-1], lam, 0.0)
        return lam, q / root[:, None]

    def spectral_power_apply(self, s, x):
        """Reference Phi diag(lambda^s) Phi^T mu x, with 0^s = 0."""
        lam, phis = self.spectrum
        return phis @ (spectral_power(lam, s) * (phis.T @ (self.mu * x)))


def spectral_power(lam, s):
    return np.where(lam > 0, np.where(lam > 0, lam, 1.0) ** float(s), 0.0)


def random_graph(rng, n):
    """Connected graph: a spanning path through a random vertex order plus
    EXTRA_EDGES_PER_VERTEX * n distinct random edges; mu and w uniform on
    [0.5, 2]."""
    order = rng.permutation(n).tolist()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])}
    target = min(len(pairs) + EXTRA_EDGES_PER_VERTEX * n, n * (n - 1) // 2)
    while len(pairs) < target:
        a, b = rng.integers(0, n, size=2).tolist()
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = np.array(sorted(pairs))
    return GraphInput(
        ids=tuple(f"v{i}" for i in range(n)),
        mu=rng.uniform(0.5, 2.0, n),
        edges=edges,
        w=rng.uniform(0.5, 2.0, len(edges)),
    )
