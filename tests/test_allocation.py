"""Peak traced allocation of the graph matrices, decompose and the odd-order
build, in units of n^2 doubles, on n = 500 graphs of low degree and on a
complete graph.

Apart from the arrays they return and the LAPACK/BLAS kernels, these steps
work on the edge pattern. Built from dense n x n intermediates instead, they
peaked at (numpy 2.4, scipy 1.17): a fresh graph's sparse_laplacian 2.04 and
sparse_gradient_coeff 2.00, decompose 5.01, build_operator(sd, 1.5) with its
sigma factor held 3.33 (3.93 with five extra edges per vertex), and
build_operator(sd, 2.0) on a fresh graph 2.04. The bounds sit well below
those, so bringing back an n x n temporary fails.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fraclap.fractional import _products_on_pattern, build_operator
from fraclap.graph import build_graph
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
    # with five extra edges per vertex the gathered terms number about
    # 0.3 n^2 and come in five blocks
    sd = decompose(random_connected(np.random.default_rng(500), N, extra))
    held = build_operator(sd, 0.5)  # holds the sigma = 0.5 kernel and rows
    assert _peak(lambda: build_operator(sd, 1.5)) <= 2.25
    assert held.kernel is build_operator(sd, 1.5).kernel


def test_gathered_terms_come_in_blocks():
    # on a star the hub's column alone holds (n - 1)^2 of the terms. The
    # build takes the whole products there, but the gathers, called on
    # their own, hold the arrays of one block of n^2 / 16 terms at a time;
    # in one block they would peak above 5
    rng = np.random.default_rng(N)
    mu, w = rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N - 1)
    g = build_graph([(f"v{i}", float(m)) for i, m in enumerate(mu)],
                    [("v0", f"v{i}", float(w[i - 1])) for i in range(1, N)])
    c, p = g.sparse_gradient_coeff, rng.standard_normal((N, N))
    assert _peak(lambda: _products_on_pattern(c, p, g.mu)) <= 1.0


def test_odd_order_build_on_a_complete_graph(complete):
    # c c^T and the products with c are full here, so the build takes the
    # whole products and peaks at 14.0 n^2 as it always has; gathering the
    # n^3 terms in one block would need about 1400 n^2 at n = 200
    n = 200
    sd = decompose(complete(np.random.default_rng(n), n))
    held = build_operator(sd, 0.5)
    sd.graph.sparse_gradient_coeff  # n^2 entries here, built before the count
    assert _peak(lambda: build_operator(sd, 1.5), n) <= 15.0
    assert held.kernel is build_operator(sd, 1.5).kernel
