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

The CLI streams each array to its sink a row at a time, from the ndarray.
Through ``ndarray.tolist()`` and one joined text, ``spectrum`` peaked at
13.35 n^2 and ``kernel --s 0.5`` at 13.87, and ``load_graph`` at n = 1000,
with a dense n x n weight matrix in the graph, at 1.24.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from fraclap import cli, fractional
from fraclap.fractional import build_operator
from fraclap.graph import load_graph
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


def _document(g):
    rows, cols, w, _ = g.edge_pattern
    upper = rows < cols
    return json.dumps({
        "vertices": [{"id": v, "mu": m} for v, m in zip(g.ids, g.mu.tolist())],
        "edges": [{"src": g.ids[a], "dst": g.ids[b], "w": x}
                  for a, b, x in zip(rows[upper], cols[upper], w[upper].tolist())],
    })


@pytest.mark.parametrize("argv, bound", [
    (["spectrum"], 3.0),
    (["kernel", "--s", "0.5"], 3.5),
], ids=["spectrum", "kernel"])
def test_cli_array_commands(g500, tmp_path, argv, bound):
    # load, decompose and the result as in a library call; the text is
    # written a row at a time
    path = tmp_path / "g.json"
    path.write_text(_document(g500), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [argv[0], "--graph", str(path), "--out", str(out), *argv[1:]]
    assert _peak(lambda: cli.main(argv)) <= bound
    assert out.stat().st_size > 20 * N * N


def test_load_graph(random_connected):
    n = 1000
    text = _document(random_connected(np.random.default_rng(n), n))
    assert _peak(lambda: load_graph(text), n) <= 0.5


def test_loaded_graph_holds_no_dense_matrix(g500):
    g = load_graph(_document(g500))
    g.sparse_laplacian, g.sparse_gradient_coeff  # cached on the graph
    held = [*g.edge_pattern]
    held += [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    held += [v.data for v in vars(g).values() if scipy.sparse.issparse(v)]
    assert max(a.size for a in held) < N * N / 10
