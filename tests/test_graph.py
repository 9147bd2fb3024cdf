import json
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fraclap.errors import (
    DimensionMismatch,
    DisconnectedError,
    ParseError,
    ValidationError,
)
from fraclap.graph import (
    PairwiseField,
    _check_connected,
    build_graph,
    divergence,
    function_document,
    gradient_field,
    integral,
    iterated_laplacian,
    laplacian_apply,
    load_function,
    load_graph,
    mu_inner,
    pointwise_inner,
)
from fraclap.spectral import decompose

SQRT2 = math.sqrt(2.0)


def graph_doc(vertices, edges):
    return json.dumps({
        "vertices": [{"id": v, "mu": m} for v, m in vertices],
        "edges": [{"src": a, "dst": b, "w": w} for a, b, w in edges],
    })


class TestLoadGraph:
    def test_two_vertex_path(self):
        g = load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", 1.0)]))
        assert g.n == 2
        assert g.volume == 2.0
        assert g.ids == ("x1", "x2")

    def test_triangle(self):
        g = load_graph(graph_doc(
            [("x1", 1.0), ("x2", 1.0), ("x3", 1.0)],
            [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
        ))
        assert g.n == 3
        assert g.volume == 3.0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)], []))

    def test_disconnected_lists_unreachable_ids(self):
        doc = graph_doc(
            [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("e", 1.0)],
            [("a", "c", 1.0), ("b", "d", 1.0), ("d", "e", 1.0)],
        )
        with pytest.raises(DisconnectedError, match=r"unreachable: \['b', 'd', 'e'\]"):
            load_graph(doc)

    def test_vertex_order_is_document_order(self):
        g = load_graph(graph_doc([("b", 1.0), ("a", 2.0)], [("b", "a", 1.0)]))
        assert g.ids == ("b", "a")
        assert g.mu[1] == 2.0

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_measure(self, mu):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", mu), ("x2", 1.0)], [("x1", "x2", 1.0)]))

    @pytest.mark.parametrize("w", [0.0, -2.0])
    def test_nonpositive_weight(self, w):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)], [("x1", "x2", w)]))

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)],
                                 [("x1", "x2", 1.0), ("x1", "x1", 1.0)]))

    def test_duplicate_edge(self):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)],
                                 [("x1", "x2", 1.0), ("x2", "x1", 2.0)]))

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", 1.0), ("x1", 1.0)], [("x1", "x1", 1.0)]))

    def test_unknown_endpoint(self):
        with pytest.raises(ValidationError):
            load_graph(graph_doc([("x1", 1.0), ("x2", 1.0)], [("x1", "zz", 1.0)]))

    @pytest.mark.parametrize("vertices, edges, named", [
        # d / mu = 2 / 1e-310 overflows at the middle vertex
        ([("x0", 1.0), ("x1", 1e-310), ("x2", 1.0)],
         [("x0", "x1", 1.0), ("x1", "x2", 1.0)], "x1"),
        # d = 2.4e308 overflows at the hub of a three-leaf star
        ([("x0", 1.0), ("x1", 1.0), ("x2", 1.0), ("x3", 1.0)],
         [("x1", y, 0.8e308) for y in ("x0", "x2", "x3")], "x1"),
        # d is finite, but the eigenvalue 2 d/mu = 1.8e308 would not be
        ([("x0", 1.0), ("x1", 1.0), ("x2", 1.0)],
         [("x0", "x1", 1.0), ("x1", "x2", 0.9e308)], "x1"),
    ], ids=["subnormal-mu", "overflowing-degree", "overflowing-spectrum"])
    def test_overflowing_degree_ratio_rejected(self, vertices, edges, named):
        with pytest.raises(ValidationError, match=f"^vertex '{named}': 2 d/mu"):
            load_graph(graph_doc(vertices, edges))

    @pytest.mark.parametrize("mu, w", [(1e-300, 1.0), (1.0, 0.8e308)])
    def test_extreme_but_representable_graph_loads(self, mu, w):
        g = load_graph(graph_doc([("x0", 1.0), ("x1", mu)], [("x0", "x1", w)]))
        assert np.all(np.isfinite(decompose(g).lambdas))

    def test_single_vertex_is_connected(self):
        g = load_graph(graph_doc([("only", 2.0)], []))
        assert g.n == 1
        assert g.volume == 2.0
        assert np.all(laplacian_apply(g, np.array([3.0])) == 0.0)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_graph("not json {")

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            load_graph(json.dumps({"vertices": [{"name": "x"}]}))


class TestConnectivity:
    """The union-find connectivity check against scipy's connected_components,
    and the exact DisconnectedError text."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_connected_components(self, seed):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng((seed, 0xC0C0))
        n = int(rng.integers(1, 60))
        pairs = {}
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            a, b = sorted(rng.integers(0, n, size=2).tolist())
            if a != b:
                pairs[(a, b)] = 1.0
        ids = tuple(f"v{i}" for i in rng.permutation(n))
        ends = np.array(list(pairs), dtype=int).reshape(-1, 2).T
        adjacency = scipy.sparse.coo_array((np.ones(ends.shape[1]), tuple(ends)), shape=(n, n))
        labels = connected_components(adjacency, directed=False)[1]
        missing = [ids[i] for i in np.flatnonzero(labels != labels[0])]
        if not missing:
            _check_connected(pairs, ids)
            return
        with pytest.raises(DisconnectedError) as info:
            _check_connected(pairs, ids)
        assert str(info.value) == f"graph is disconnected; unreachable: {missing}"

    @pytest.mark.parametrize("edges, unreachable", [
        ([("b", "c"), ("c", "d"), ("d", "e")], "['b', 'c', 'd', 'e']"),
        ([("a", "b"), ("b", "c"), ("c", "d")], "['e']"),
        ([("a", "b"), ("c", "d"), ("d", "e")], "['c', 'd', 'e']"),
        ([("d", "b")], "['b', 'c', 'd', 'e']"),
    ], ids=["first-vertex-isolated", "last-vertex-isolated", "two-components",
            "several-components"])
    def test_error_names_unreachable_in_vertex_order(self, edges, unreachable):
        doc = graph_doc([(v, 1.0) for v in "abcde"], [(x, y, 1.0) for x, y in edges])
        with pytest.raises(DisconnectedError) as info:
            load_graph(doc)
        assert str(info.value) == f"graph is disconnected; unreachable: {unreachable}"


class TestFunctionIO:
    def test_round_trip(self, p2):
        u = np.array([0.5, -1.25])
        doc = function_document(p2, u)
        back = load_function(p2, json.dumps(doc))
        assert np.array_equal(back, u)

    def test_missing_vertex(self, p2):
        with pytest.raises(ValidationError):
            load_function(p2, json.dumps({"values": {"x1": 1.0}}))

    def test_extra_vertex(self, p2):
        with pytest.raises(ValidationError):
            load_function(p2, json.dumps({"values": {"x1": 1.0, "x2": 0.0, "zz": 3.0}}))

    def test_length_mismatch(self, p2):
        with pytest.raises(DimensionMismatch):
            integral(p2, np.ones(3))


@pytest.mark.parametrize("call, error, match", [
    (lambda g: build_graph([], []), ValidationError, "at least one vertex"),
    (lambda g: load_function(g, json.dumps({"vals": {"x1": 0.0, "x2": 1.0}})),
     ParseError, "malformed function document"),
    (lambda g: load_function(g, '{"values": {"x1": NaN, "x2": 1.0}}'),
     DimensionMismatch, "must be finite"),
    (lambda g: PairwiseField(entries=np.zeros((2, 3))), DimensionMismatch, "must be square"),
    (lambda g: divergence(g, PairwiseField(entries=np.zeros((3, 3)))),
     DimensionMismatch, "does not match n=2"),
    (lambda g: pointwise_inner(g, np.zeros((2, 2)), np.zeros((1, 1))),
     DimensionMismatch, "does not match n=2"),
], ids=["no-vertices", "no-values", "nan-value", "not-square", "field-shape",
        "array-shape"])
def test_public_input_rejections(p2, call, error, match):
    with pytest.raises(error, match=match):
        call(p2)


def test_load_graph_takes_a_parsed_document():
    doc = graph_doc([("x1", 1.0), ("x2", 2.0)], [("x1", "x2", 3.0)])
    parsed, loaded = load_graph(json.loads(doc)), load_graph(doc)
    assert parsed.ids == loaded.ids
    assert np.array_equal(parsed.mu, loaded.mu)
    assert np.array_equal(parsed.laplacian_matrix(), loaded.laplacian_matrix())


class TestIntegral:
    def test_constant_times_volume(self, p2):
        assert integral(p2, np.array([1.0, 1.0])) == 2.0

    def test_antisymmetry(self, p2):
        assert integral(p2, np.array([1.0, -1.0])) == 0.0

    def test_weighted(self):
        g = build_graph([("x1", 2.0), ("x2", 3.0)], [("x1", "x2", 1.0)])
        assert integral(g, np.array([1.0, 1.0])) == 5.0


class TestLaplacian:
    def test_kills_constants(self, p2):
        assert np.allclose(laplacian_apply(p2, np.array([1.0, 1.0])), 0.0)

    def test_p2_eigenmode(self, p2):
        out = laplacian_apply(p2, np.array([1.0, -1.0]))
        assert np.allclose(out, [2.0, -2.0])

    def test_k3_indicator(self, k3):
        out = laplacian_apply(k3, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [2.0, -1.0, -1.0])


def dense_laplacian(g):
    """The positive Laplacian from the dense weight matrix: the reference
    formula for the edge-pattern matrices."""
    return (np.diag(g.weights.sum(axis=1)) - g.weights) / g.mu[:, None]


def dense_gradient_coeff(g):
    """The gradient coefficients sqrt(w_xy / (2 mu_x)) from the dense weight
    matrix: the reference formula for the edge-pattern matrices."""
    return np.sqrt(g.weights / (2.0 * g.mu[:, None]))


class TestCachedSparseMatrices:
    @pytest.mark.parametrize("name,dense", [
        ("sparse_laplacian", dense_laplacian),
        ("sparse_gradient_coeff", dense_gradient_coeff),
    ])
    def test_bit_identical_cached_and_read_only(self, all_graphs, name, dense):
        for g in all_graphs.values():
            a = getattr(g, name)
            assert getattr(g, name) is a
            assert np.array_equal(a.toarray(), dense(g))
            assert a.nnz == np.count_nonzero(dense(g))
            # the index type the conversion of the dense matrix picks
            ref = scipy.sparse.csr_array(dense(g))
            assert (a.indices.dtype, a.indptr.dtype) == (ref.indices.dtype, ref.indptr.dtype)
            for arr in (a.data, a.indices, a.indptr):
                assert not arr.flags.writeable

    def test_dense_views_match_dense_formulas(self, all_graphs):
        rng = np.random.default_rng(5)
        for g in all_graphs.values():
            u = rng.standard_normal(g.n)
            assert np.array_equal(g.laplacian_matrix(), dense_laplacian(g))
            assert np.array_equal(gradient_field(g, u).entries,
                                  dense_gradient_coeff(g) * (u[:, None] - u[None, :]))
            want = dense_laplacian(g) @ u
            assert np.max(np.abs(laplacian_apply(g, u) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_edge_pattern_read_only(self, er20):
        for arr in er20.edge_pattern:
            assert not arr.flags.writeable


class TestGradientField:
    def test_constant_is_zero(self, p2):
        f = gradient_field(p2, np.array([3.0, 3.0]))
        assert np.all(f.entries == 0.0)

    def test_p2_values(self, p2):
        f = gradient_field(p2, np.array([1.0, -1.0]))
        assert f.entries[0, 1] == pytest.approx(SQRT2, abs=1e-12)
        assert f.entries[1, 0] == pytest.approx(-SQRT2, abs=1e-12)

    def test_constant_zero_everywhere(self, er20):
        f = gradient_field(er20, np.full(er20.n, 4.2))
        assert np.all(f.entries == 0.0)

    def test_antisymmetry_scaled_by_measure(self, er20):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(er20.n)
        f = gradient_field(er20, u).entries
        scaled = np.sqrt(er20.mu)[:, None] * f
        assert np.max(np.abs(scaled + scaled.T)) < 1e-10

    def test_zero_diagonal_enforced(self):
        with pytest.raises(ValidationError):
            PairwiseField(entries=np.ones((2, 2)))


class TestPointwiseInner:
    def test_gradient_square_length(self, p2):
        f = gradient_field(p2, np.array([1.0, -1.0]))
        assert np.allclose(pointwise_inner(p2, f, f), [2.0, 2.0])

    def test_zero_field(self, p2):
        f = gradient_field(p2, np.array([1.0, -1.0]))
        z = PairwiseField(entries=np.zeros((2, 2)))
        assert np.all(pointwise_inner(p2, f, z) == 0.0)

    def test_constant_factor(self, k3):
        f = gradient_field(k3, np.array([1.0, 0.0, 0.0]))
        zc = gradient_field(k3, np.full(3, 2.0))
        assert np.all(pointwise_inner(k3, f, zc) == 0.0)

    def test_matches_local_formula(self, er20):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(er20.n)
        v = rng.standard_normal(er20.n)
        fu, fv = gradient_field(er20, u), gradient_field(er20, v)
        got = pointwise_inner(er20, fu, fv)
        diff_u = u[:, None] - u[None, :]
        diff_v = v[:, None] - v[None, :]
        want = (er20.weights * diff_u * diff_v).sum(axis=1) / (2.0 * er20.mu)
        assert np.max(np.abs(got - want)) < 1e-12


class TestDivergence:
    def test_divergence_of_gradient_p2(self, p2):
        f = gradient_field(p2, np.array([1.0, -1.0]))
        assert np.allclose(divergence(p2, f), [-2.0, 2.0])

    def test_divergence_of_gradient_k3(self, k3):
        f = gradient_field(k3, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(divergence(k3, f), [-2.0, 1.0, 1.0])

    def test_zero_field(self, k3):
        z = PairwiseField(entries=np.zeros((3, 3)))
        assert np.all(divergence(k3, z) == 0.0)

    def test_identity_with_laplacian(self, all_graphs):
        rng = np.random.default_rng(3)
        for g in all_graphs.values():
            u = rng.standard_normal(g.n)
            lhs = divergence(g, gradient_field(g, u))
            assert np.max(np.abs(lhs + laplacian_apply(g, u))) < 1e-10

    def test_duality_with_gradient(self, er20):
        # integral(div F * phi) == -integral(F . grad phi) for non-gradient F too
        rng = np.random.default_rng(4)
        entries = rng.standard_normal((er20.n, er20.n))
        np.fill_diagonal(entries, 0.0)
        f = PairwiseField(entries=entries)
        for _ in range(10):
            phi = rng.standard_normal(er20.n)
            lhs = integral(er20, divergence(er20, f) * phi)
            rhs = -integral(er20, pointwise_inner(er20, f, gradient_field(er20, phi)))
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


class TestIteratedLaplacian:
    def test_square_on_eigenmode(self, p2):
        out = iterated_laplacian(p2, np.array([1.0, -1.0]), 2)
        assert np.allclose(out, [4.0, -4.0])

    def test_base_case(self, er20):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(er20.n)
        assert np.allclose(iterated_laplacian(er20, u, 1), -laplacian_apply(er20, u))

    def test_constants_vanish(self, k3):
        for m in (1, 2, 3):
            assert np.allclose(iterated_laplacian(k3, np.full(3, 7.0), m), 0.0)

    def test_rejects_bad_order(self, p2):
        with pytest.raises(ValueError):
            iterated_laplacian(p2, np.zeros(2), 0)


class TestGlobalIdentities:
    def test_laplacian_integrates_to_zero(self, all_graphs):
        rng = np.random.default_rng(6)
        for g in all_graphs.values():
            for _ in range(25):
                u = rng.standard_normal(g.n)
                defect = abs(integral(g, laplacian_apply(g, u)))
                assert defect <= 1e-10 * np.max(np.abs(u)) * g.volume

    def test_green_identity(self, all_graphs):
        rng = np.random.default_rng(7)
        for g in all_graphs.values():
            for _ in range(100):
                u = rng.standard_normal(g.n)
                v = rng.standard_normal(g.n)
                lhs = mu_inner(g, v, laplacian_apply(g, u))
                rhs = integral(
                    g, pointwise_inner(g, gradient_field(g, u), gradient_field(g, v))
                )
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(u=arrays(np.float64, 3, elements=bounded),
       v=arrays(np.float64, 3, elements=bounded),
       a=st.floats(min_value=-10, max_value=10))
def test_integral_linearity(u, v, a):
    g = make_k3_module()
    lhs = integral(g, a * u + v)
    rhs = a * integral(g, u) + integral(g, v)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(c=st.floats(min_value=-100, max_value=100))
def test_laplacian_kills_constants_hyp(c):
    g = make_k3_module()
    assert np.max(np.abs(laplacian_apply(g, np.full(3, c)))) <= 1e-10 * (1 + abs(c))


def make_k3_module():
    return build_graph(
        [("x1", 1.0), ("x2", 1.0), ("x3", 1.0)],
        [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
    )
