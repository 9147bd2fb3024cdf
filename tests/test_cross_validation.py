"""Cross-checks against independent numerical routes: different root finders,
randomly generated weighted graphs, and closed forms nobody else computes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import root

from fraclap import kazdan_warner as kw
from fraclap.errors import CertificateUnsolvable, NotSolved
from fraclap.fractional import build_operator, frac_inner
from fraclap.graph import (
    build_graph,
    divergence,
    gradient_field,
    integral,
    laplacian_apply,
    mu_inner,
)
from fraclap.spectral import decompose


@st.composite
def connected_graphs(draw, max_n=6):
    """Random small weighted graph: spanning tree plus optional chords."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    positive = st.floats(min_value=0.1, max_value=10.0)
    mu = [draw(positive) for _ in range(n)]
    edges = []
    for child in range(1, n):  # tree: attach each vertex to an earlier one
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.append((parent, child, draw(positive)))
    present = {(a, b) for a, b, _ in edges}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in present and draw(st.booleans()):
                edges.append((a, b, draw(positive)))
    return build_graph(
        [(f"v{i}", m) for i, m in enumerate(mu)],
        [(f"v{a}", f"v{b}", w) for a, b, w in edges],
    )


@settings(max_examples=25, deadline=None)
@given(g=connected_graphs(), s=st.floats(min_value=0.05, max_value=0.95))
def test_kernel_positive_on_random_graphs(g, s):
    op = build_operator(decompose(g), s)
    off = ~np.eye(g.n, dtype=bool)
    assert np.min(op.kernel[off]) > 0.0
    assert np.max(np.abs(op.kernel - op.kernel.T)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(g=connected_graphs(), s=st.floats(min_value=0.1, max_value=0.9),
       seed=st.integers(min_value=0, max_value=2**16))
def test_energy_pairing_on_random_graphs(g, s, seed):
    op = build_operator(decompose(g), s)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.n)
    v = rng.standard_normal(g.n)
    a = mu_inner(g, v, op.op_matrix @ u)
    b = integral(g, frac_inner(op, u, v))
    assert abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))


@settings(max_examples=25, deadline=None)
@given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=2**16))
def test_divergence_identity_on_random_graphs(g, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.n)
    lhs = divergence(g, gradient_field(g, u))
    assert np.max(np.abs(lhs + laplacian_apply(g, u))) < 1e-9 * (1 + np.max(np.abs(lhs)))


@st.composite
def signed_kappas(draw, n):
    """kappa of one sign pattern: positive, negative, one-signed with a zero,
    identically zero, or mixed."""
    pattern = draw(st.sampled_from(["positive", "negative", "zeros", "zero", "mixed"]))
    negative = pattern == "negative" or (pattern == "zeros" and draw(st.booleans()))
    values = np.array([draw(st.floats(min_value=0.1, max_value=2.0)) for _ in range(n)])
    values *= -1.0 if negative else 1.0
    some = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    if pattern == "zeros":
        values[some] = 0.0
    elif pattern == "zero":
        values[:] = 0.0
    elif pattern == "mixed":
        values[some] *= -1.0
    return values


@settings(max_examples=50, deadline=None)
@given(data=st.data(), s=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]),
       c=st.sampled_from([-1.0, -0.1, 0.0, 0.1, 1.0]))
def test_sign_contract_of_the_integrated_equation(data, s, c):
    g = data.draw(connected_graphs(max_n=8))
    assert_sign_contract(g, s, c, data.draw(signed_kappas(g.n)))


def test_sign_contract_at_a_vanishing_kappa_integral():
    # a draw of the test above: np.dot reads integral(kappa) as 3.5e-17 and
    # the elementwise sum as 0, so the positive-c descent once started where
    # integral(kappa e^v) = 0 and ended in a raw TypeError
    mu = (0.5063805542233385, 1.8125)
    g = build_graph([("v0", mu[0]), ("v1", mu[1])], [("v0", "v1", 1.0)])
    assert_sign_contract(g, 0.5, 0.1, np.array([-mu[1], mu[0]]))


def assert_sign_contract(g, s, c, kappa):
    # integrating the equation at any s gives integral(kappa e^u) = c |V|:
    # where signs make that impossible, the screen certifies it, solve stops
    # there and the route past the screen finds nothing; anywhere else a
    # report re-checks within tol, and no solve meets a variational sign guard
    p = kw.KWProblem(graph=g, s=s, c=c, kappa=kappa)
    op = build_operator(decompose(g), s)
    kmax, kmin = float(np.max(kappa)), float(np.min(kappa))
    impossible = (kmax <= 0 if c > 0 else kmin >= 0 if c < 0
                  else bool(np.any(kappa)) and (kmax <= 0 or kmin >= 0))
    opts = kw.SolveOptions()
    if impossible:
        assert kw.screen(p).status == kw.UNSOLVABLE
        with pytest.raises(CertificateUnsolvable):
            kw.solve(p, opts, op=op)
        with pytest.raises(NotSolved):
            kw._route(p, opts, op, [])
        return
    try:
        rep = kw.solve(p, opts, op=op)
    except CertificateUnsolvable:
        assert kw.screen(p).status == kw.UNSOLVABLE
    except NotSolved as exc:
        guards = ("variational-zero-c: constraint set empty: kappa must change sign",
                  "variational-positive-c: kappa is nowhere positive")
        assert not any(entry.startswith(guards) for entry in exc.trace)
    else:
        assert kw.check_solution(p, rep.solution, op).residual_inf <= opts.tol


class TestIndependentRootFinder:
    """scipy.optimize.root (hybr) as a second opinion on solved problems."""

    def test_solutions_agree_with_hybr(self, er20):
        op = build_operator(decompose(er20), 0.5)
        rng = np.random.default_rng(42)
        for k in range(6):
            u_star = 0.4 * rng.standard_normal(er20.n)
            c = float(rng.uniform(-0.8, 1.2))
            kappa = np.exp(-u_star) * (op.op_matrix @ u_star + c)
            p = kw.KWProblem(graph=er20, s=0.5, c=c, kappa=kappa)
            if kw.screen(p).status == kw.UNSOLVABLE:
                continue
            rep = kw.solve(p, op=op)

            def equation(u, kap=kappa, cc=c):
                return op.op_matrix @ u - kap * np.exp(u) + cc

            # start hybr near the package's answer: it must confirm a root there
            res = root(equation, rep.solution, method="hybr", tol=1e-12)
            assert res.success
            assert np.max(np.abs(res.x - rep.solution)) < 1e-6

    def test_threshold_side_agrees_with_hybr(self, p2):
        # hybr from many starts also finds nothing below the threshold
        op = build_operator(decompose(p2), 0.5)
        kappa = np.array([1.0, -3.0])
        c = -0.2  # well below the analytic threshold near -0.1041
        rng = np.random.default_rng(7)

        def equation(u):
            return op.op_matrix @ u - kappa * np.exp(u) + c

        found = False
        for _ in range(60):
            res = root(equation, rng.normal(scale=2.0, size=2), method="hybr")
            if res.success and np.max(np.abs(equation(res.x))) < 1e-9:
                found = True
        assert not found


class TestConstrainedMinimumQuality:
    def test_positive_c_reaches_constant_optimum(self, k3):
        # for constant kappa the constant solution is the global minimizer
        op = build_operator(decompose(k3), 0.5)
        c, k0 = 1.5, 2.0
        p = kw.KWProblem(graph=k3, s=0.5, c=c, kappa=np.full(3, k0))
        rep = kw.solve(p, kw.SolveOptions(method="variational"), op=op)
        expected_energy = c * k3.volume * math.log(c / k0)
        assert rep.energy == pytest.approx(expected_energy, abs=1e-9)

    def test_zero_c_energy_positive(self, path10):
        op = build_operator(decompose(path10), 0.5)
        rng = np.random.default_rng(11)
        kappa = rng.standard_normal(path10.n)
        kappa -= integral(path10, kappa) / path10.volume + 0.4
        p = kw.KWProblem(graph=path10, s=0.5, c=0.0, kappa=kappa)
        if kw.screen(p).status == kw.SOLVABLE:
            rep = kw.solve(p, kw.SolveOptions(method="variational"), op=op)
            assert rep.energy > 0.0
