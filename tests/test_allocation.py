"""Peak traced allocation of the graph matrices, decompose and the odd-order
build, in units of n^2 doubles, on n = 500 graphs of low degree and on a
complete graph.

Apart from the arrays they return and the LAPACK/BLAS kernels, these steps
work on the edge pattern. Built from dense n x n intermediates instead, they
peaked at (numpy 2.4, scipy 1.17): a fresh graph's sparse_laplacian 2.04 and
sparse_gradient_coeff 2.00, decompose 5.01, and build_operator(sd, 2.0) on a
fresh graph 2.04. build_operator(sd, 1.5) with its sigma factor held peaks
at 1.32 (1.89 with five extra edges per vertex): the product K c and the
result are never alive together. With S = diag(K 1) - K formed as an n x n
temporary it peaked at 2.32 (2.89), and forming the divergence from dense
n x n intermediates at 3.33 (3.93). The bounds sit below those, so bringing
back an n x n temporary fails.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fraclap import fractional
from fraclap.fractional import build_operator
from fraclap.spectral import decompose

N = 500


def _peak(call, n=N):
    """Peak bytes allocated while call() runs, in units of n^2 doubles."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - base) / (8.0 * n * n)


@pytest.fixture(scope="module")
def g500(random_connected):
    return random_connected(np.random.default_rng(500), N)


@pytest.mark.parametrize("name", ["sparse_laplacian", "sparse_gradient_coeff"])
def test_graph_matrices_on_a_fresh_graph(g500, name):
    # replace() copies the fields into a graph with nothing cached yet
    assert _peak(lambda: getattr(replace(g500), name)) <= 0.25


def test_decompose(g500):
    assert _peak(lambda: decompose(replace(g500))) <= 3.5


@pytest.mark.parametrize("extra", [2, 5])
def test_odd_order_build_with_sigma_factor_held(random_connected, extra):
    # with five extra edges per vertex c c^T has about 0.3 n^2 entries
    sd = decompose(random_connected(np.random.default_rng(500), N, extra))
    held = build_operator(sd, 0.5)  # holds the sigma = 0.5 kernel and rows
    assert _peak(lambda: build_operator(sd, 1.5)) <= 2.25
    assert held.kernel is build_operator(sd, 1.5).kernel


def test_odd_order_build_computes_no_rows(g500, monkeypatch):
    # odd m reads the sigma kernel alone: on a fresh decomposition the build
    # neither forms the n x n operator rows nor leaves them in the memo
    calls = []
    monkeypatch.setattr(fractional, "_operator_from_kernel", lambda *args: calls.append(args))
    sd = decompose(g500)
    op = build_operator(sd, 1.5)
    assert calls == []
    assert list(sd.sigma_factors) == [("kernel", 0.5)]
    assert sd.sigma_factors["kernel", 0.5] is op.kernel


def test_odd_order_build_on_a_complete_graph(complete):
    # c c^T is full here: its sparse product and the kernel gathered on it
    # peak at 5.9 n^2; forming the two halves of the divergence as sparse
    # products peaked at 14.0 n^2
    n = 200
    sd = decompose(complete(np.random.default_rng(n), n))
    held = build_operator(sd, 0.5)
    sd.graph.sparse_gradient_coeff  # n^2 entries here, built before the count
    assert _peak(lambda: build_operator(sd, 1.5), n) <= 15.0
    assert held.kernel is build_operator(sd, 1.5).kernel
