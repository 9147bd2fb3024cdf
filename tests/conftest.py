import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import fraclap
from fraclap.graph import build_graph

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))


def make_p2():
    return build_graph([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 1.0)])


def make_k3():
    return build_graph(
        [("x1", 1.0), ("x2", 1.0), ("x3", 1.0)],
        [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
    )


def make_weighted_path(n=10, seed=3):
    rng = np.random.default_rng(seed)
    verts = [(f"p{i}", float(rng.uniform(0.5, 2.0))) for i in range(n)]
    edges = [
        (f"p{i}", f"p{i + 1}", float(rng.uniform(0.5, 2.0))) for i in range(n - 1)
    ]
    return build_graph(verts, edges)


def make_unit_path(n):
    """The path on n vertices with unit measure and unit weights."""
    verts = [(f"p{i}", 1.0) for i in range(n)]
    edges = [(f"p{i}", f"p{i + 1}", 1.0) for i in range(n - 1)]
    return build_graph(verts, edges)


def make_er20(seed=0, n=20, p=0.25):
    # seed 0 gives a connected draw; keep it pinned for reproducibility
    rng = np.random.default_rng(seed)
    verts = [(f"v{i}", float(rng.uniform(0.5, 2.0))) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((f"v{i}", f"v{j}", float(rng.uniform(0.5, 2.0))))
    return build_graph(verts, edges)


def make_random_connected(rng, n, extra_per_vertex=2):
    """Spanning path through a random vertex order plus extra_per_vertex * n
    distinct random edges; mu and w uniform on [0.5, 2]. Draws from rng, so a
    caller can keep drawing from the same stream."""
    order = rng.permutation(n).tolist()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])}
    target = len(pairs) + extra_per_vertex * n
    while len(pairs) < target:
        a, b = sorted(rng.integers(0, n, size=2).tolist())
        if a != b:
            pairs.add((a, b))
    verts = [(f"v{i}", float(m)) for i, m in enumerate(rng.uniform(0.5, 2.0, n))]
    pairs = sorted(pairs)
    edges = [
        (f"v{a}", f"v{b}", float(w))
        for (a, b), w in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)))
    ]
    return build_graph(verts, edges)


def make_complete(rng, n):
    """The complete graph on n vertices, mu and w uniform on [0.5, 2]."""
    verts = [(f"v{i}", float(m)) for i, m in enumerate(rng.uniform(0.5, 2.0, n))]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [
        (f"v{a}", f"v{b}", float(w))
        for (a, b), w in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)))
    ]
    return build_graph(verts, edges)


def make_star(rng, n):
    """The star on n vertices with hub v0, mu and w uniform on [0.5, 2]."""
    verts = [(f"v{i}", float(m)) for i, m in enumerate(rng.uniform(0.5, 2.0, n))]
    edges = [("v0", f"v{i}", float(w)) for i, w in enumerate(rng.uniform(0.5, 2.0, n - 1), 1)]
    return build_graph(verts, edges)


@pytest.fixture(scope="session")
def p2():
    return make_p2()


@pytest.fixture(scope="session")
def k3():
    return make_k3()


@pytest.fixture(scope="session")
def path10():
    return make_weighted_path()


@pytest.fixture(scope="session")
def path40():
    # long enough that the Trudinger-Moser bound at s = 1.5 overflows
    return make_unit_path(40)


@pytest.fixture(scope="session")
def er20():
    return make_er20()


@pytest.fixture(scope="session")
def all_graphs(p2, k3, path10, er20):
    return {"p2": p2, "k3": k3, "path10": path10, "er20": er20}


@pytest.fixture(scope="session")
def random_connected():
    return make_random_connected


@pytest.fixture(scope="session")
def complete():
    return make_complete


@pytest.fixture(scope="session")
def star():
    return make_star


@pytest.fixture(scope="session")
def heavy_draw():
    """make_random_connected(default_rng(5), 60) with every edge weight
    multiplied by 1e100, built as a loaded document is. At c = 0 and s = 0.5
    its constraint restoration once crawled by unit Newton steps over a
    bracket of 1.4e14."""
    g = make_random_connected(np.random.default_rng(5), 60)
    rows, cols, w, _ = g.edge_pattern
    return build_graph(list(zip(g.ids, g.mu.tolist())), [
        (g.ids[a], g.ids[b], float(x) * 1e100) for a, b, x in zip(rows, cols, w) if a < b])


@pytest.fixture(scope="session")
def p2_threshold():
    """Solvability threshold c* of P2 at s = 1/2 with kappa = (1, -3).

    On P2 the operator is u -> a (u1 - u2) (1, -1) with a = 2^(-1/2). Adding
    the two equations gives e^u2 = (x - 2c) / 3 with x = e^u1, which leaves
    a ln(3x / (x - 2c)) = x - c. The threshold is the fold of that curve,
    where also x (x - 2c) = -2ac, that is c = x^2 / (2 (x - a)).
    """
    a = 2.0 ** -0.5

    def fold_c(x):
        return x * x / (2.0 * (x - a))

    def equation(x):
        c = fold_c(x)
        return a * math.log(3.0 * x / (x - 2.0 * c)) - x + c

    return fold_c(brentq(equation, 0.05, 0.6, xtol=1e-16))  # -0.1041363464018731


def run_isolated(argv, timeout=60):
    """Run ``python argv...`` in a fresh interpreter that imports this
    fraclap, so a call that never returns fails by timeout instead of
    stalling the suite. Returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def isolated():
    """run_isolated for a snippet of library code that prints one JSON
    document: returns that document, and fails on a nonzero exit."""
    def run(code, timeout=60):
        code_, out, err = run_isolated(["-c", code], timeout)
        assert code_ == 0, err
        return json.loads(out)
    return run


@pytest.fixture(scope="session")
def isolated_cli():
    """run_isolated on ``-m fraclap.cli`` with the given arguments."""
    return lambda args, timeout=60: run_isolated(["-m", "fraclap.cli", *args], timeout)
