import json
import logging
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fraclap import kazdan_warner as kw
from fraclap.checks import CheckEntry, CheckReport
from fraclap.cli import format_json, main
from fraclap.errors import NumericalError
from fraclap.fractional import build_operator, spectral_kernel
from fraclap.graph import load_graph
from fraclap.spectral import SpectralDecomposition, decompose

P2_DOC = {
    "vertices": [{"id": "x1", "mu": 1.0}, {"id": "x2", "mu": 1.0}],
    "edges": [{"src": "x1", "dst": "x2", "w": 1.0}],
}


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2_DOC))
    return str(path)


def fn_file(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps({"values": values}))
    return str(path)


def graph_file(tmp_path, g):
    rows, cols = np.nonzero(np.triu(g.weights))
    doc = {
        "vertices": [{"id": v, "mu": float(m)} for v, m in zip(g.ids, g.mu)],
        "edges": [{"src": g.ids[a], "dst": g.ids[b], "w": float(g.weights[a, b])}
                  for a, b in zip(rows, cols)],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return str(path)


def reference_format_json(obj, indent=0):
    """The per-float recursive serializer, kept as the oracle for format_json."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_format_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_format_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"refusing to serialize non-finite value {x}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17,
]
plain_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
json_leaves = st.one_of(
    plain_floats,
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.sampled_from(['"quoted"', "caf\u00e9", "\u2603 \\ \"", "\u00fc\n"]),
    st.text(),
)
json_payloads = st.recursive(
    st.one_of(json_leaves, st.lists(plain_floats, max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=10,
)


def serialized(fn, obj, indent):
    try:
        return fn(obj, indent)
    except NumericalError as exc:
        return NumericalError, str(exc)


# the one stderr line of a Newton route whose one start, zero, found no root
NEWTON_FAILED = (r"error: search failure: newton-continuation: all starts failed "
                 r"\(1 start; smallest residual [^)]+\)\n")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def null_root_handler():
    """A host that has configured logging: the root logger has a handler."""
    handler = logging.NullHandler()
    logging.root.addHandler(handler)
    yield
    logging.root.removeHandler(handler)


class TestFormatJson:
    def test_floats_have_17_significant_digits(self):
        text = format_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_exact(self):
        values = [1 / 3, math.pi, 2.0 ** -52, -0.0, 1e300]
        text = format_json(values)
        assert [float(v) for v in json.loads(text)] == values

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalError, match="non-finite value nan"):
            format_json({"x": float("nan")})

    @pytest.mark.parametrize("payload, first", [
        ([1.0, math.nan], "nan"),
        ([[0.5, math.inf]], "inf"),
        ({"x": [0.0, -math.inf]}, "-inf"),
        ([2.0, -math.inf, math.nan], "-inf"),
    ])
    def test_rejects_nonfinite_in_float_rows(self, payload, first):
        # the message names the first non-finite value in row order
        with pytest.raises(NumericalError, match=f"non-finite value {first}$"):
            format_json(payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=json_payloads, indent=st.integers(0, 3))
    def test_matches_per_float_reference(self, payload, indent):
        assert serialized(format_json, payload, indent) == serialized(
            reference_format_json, payload, indent)

    @pytest.mark.parametrize("array", [
        np.array(EDGE_FLOATS),
        np.arange(12.0).reshape(3, 4) / 7.0,
        (np.arange(12.0).reshape(3, 4) / 7.0).T,
        np.empty(0),
        np.empty((2, 0)),
        np.empty((0, 3)),
        np.array([[1 / 3]]),
    ], ids=["1d", "2d", "2d-strided-rows", "empty", "empty-rows", "no-rows", "1x1"])
    @pytest.mark.parametrize("indent", [0, 2])
    def test_ndarray_matches_reference_on_tolist(self, array, indent):
        assert format_json(array, indent) == reference_format_json(array.tolist(), indent)
        payload = {"a": array, "b": [array, 1.5]}
        assert format_json(payload, indent) == reference_format_json(
            {"a": array.tolist(), "b": [array.tolist(), 1.5]}, indent)

    @settings(max_examples=200, deadline=None)
    @given(array=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0)),
           indent=st.integers(0, 3))
    def test_ndarray_with_any_floats_matches_reference(self, array, indent):
        # a non-finite entry is refused, naming the first one in row order
        assert serialized(format_json, {"x": array}, indent) == serialized(
            reference_format_json, {"x": array.tolist()}, indent)

    def test_nested_structures(self):
        text = format_json({"a": [1, 2.5], "b": {"c": None, "d": True}})
        assert json.loads(text) == {"a": [1, 2.5], "b": {"c": None, "d": True}}


class TestSpectrum:
    def test_p2(self, p2_file, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--graph", p2_file])
        assert code == 0
        data = json.loads(out)
        assert data["lambdas"] == pytest.approx([0.0, 2.0], abs=1e-12)
        assert data["phis"][0] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-10)

    def test_determinism(self, p2_file, capsys):
        _, out1, _ = run_cli(capsys, ["spectrum", "--graph", p2_file])
        _, out2, _ = run_cli(capsys, ["spectrum", "--graph", p2_file])
        assert out1 == out2

    def test_small_weights_exit_0(self, tmp_path, capsys):
        # the zero-mode threshold is relative to lambda_max = 2e-12
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "vertices": [{"id": "x1", "mu": 1.0}, {"id": "x2", "mu": 1.0}],
            "edges": [{"src": "x1", "dst": "x2", "w": 1e-12}],
        }))
        code, out, err = run_cli(capsys, ["spectrum", "--graph", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["lambdas"] == [0.0, 2e-12]


class TestKernel:
    def test_spectral_path(self, p2_file, capsys):
        code, out, _ = run_cli(capsys, ["kernel", "--graph", p2_file, "--s", "0.5"])
        assert code == 0
        data = json.loads(out)
        assert data[0][1] == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_oracle_path_agrees(self, p2_file, capsys):
        _, out1, _ = run_cli(capsys, ["kernel", "--graph", p2_file, "--s", "0.5"])
        code, out2, _ = run_cli(
            capsys, ["kernel", "--graph", p2_file, "--s", "0.5", "--oracle",
                     "--tol", "1e-10"])
        assert code == 0
        a, b = np.array(json.loads(out1)), np.array(json.loads(out2))
        assert np.max(np.abs(a - b)) < 1e-8

    def test_out_of_range_s(self, p2_file, capsys):
        code, _, _ = run_cli(capsys, ["kernel", "--graph", p2_file, "--s", "1.5"])
        assert code == 1


class TestApply:
    def test_eigenmode(self, p2_file, tmp_path, capsys):
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        code, out, _ = run_cli(
            capsys, ["apply", "--graph", p2_file, "--s", "0.5", "--input", u])
        assert code == 0
        data = json.loads(out)
        assert data["values"]["x1"] == pytest.approx(math.sqrt(2), abs=1e-10)
        assert data["values"]["x2"] == pytest.approx(-math.sqrt(2), abs=1e-10)

    def test_integer_order_warns(self, p2_file, tmp_path, capsys):
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        code, out, err = run_cli(
            capsys, ["apply", "--graph", p2_file, "--s", "2", "--input", u])
        assert code == 0
        assert "integer-order" in err
        assert json.loads(out)["values"]["x1"] == pytest.approx(4.0, abs=1e-9)

    def test_round_trip_bit_identical(self, p2_file, tmp_path, capsys):
        from fraclap.graph import load_function, load_graph

        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        _, out, _ = run_cli(
            capsys, ["apply", "--graph", p2_file, "--s", "0.37", "--input", u])
        g = load_graph(json.dumps(P2_DOC))
        emitted = load_function(g, out)
        # the emitted text reloads to the exact same doubles
        from fraclap.fractional import build_operator, frac_apply
        from fraclap.spectral import decompose

        expected = frac_apply(build_operator(decompose(g), 0.37),
                              np.array([1.0, -1.0]))
        assert np.array_equal(emitted, expected)


class TestHeat:
    def test_decay(self, p2_file, tmp_path, capsys):
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        code, out, _ = run_cli(
            capsys, ["heat", "--graph", p2_file, "--t", "1.0", "--input", u])
        assert code == 0
        data = json.loads(out)
        assert data["values"]["x1"] == pytest.approx(math.exp(-2.0), abs=1e-12)


class TestPoissonCmd:
    def test_eigenmode(self, p2_file, tmp_path, capsys):
        f = fn_file(tmp_path, "f.json", {"x1": 1.0, "x2": -1.0})
        code, out, _ = run_cli(
            capsys, ["poisson", "--graph", p2_file, "--s", "0.5", "--input", f])
        assert code == 0
        data = json.loads(out)
        assert data["values"]["x1"] == pytest.approx(2.0 ** -0.5, abs=1e-10)


class TestKwCmd:
    def test_solvable(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": 1.0})
        code, out, _ = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "1.0",
                     "--kappa", kap])
        assert code == 0
        data = json.loads(out)
        assert abs(data["solution"]["values"]["x1"]) < 1e-10
        assert data["method"] == "variational-positive-c"
        assert data["verdict"]["status"] == "solvable"

    def test_certificate_unsolvable_exit_2(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -2.0})
        code, out, _ = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "1.0",
                     "--kappa", kap])
        assert code == 2
        data = json.loads(out)
        assert list(data) == ["solution", "residual_inf", "method", "iterations", "energy",
                              "verdict"]
        assert data["solution"] is None
        assert data["residual_inf"] is None
        assert data["method"] == "screen"
        assert data["iterations"] == 0
        assert data["energy"] is None
        assert data["verdict"]["status"] == "unsolvable"
        assert data["verdict"]["reasons"]

    @pytest.mark.parametrize("c, reason", [
        ("0", "c = 0 with kappa one-signed and not identically zero: integral(kappa e^u) "
              "= 0 is impossible (integrated equation)"),
        ("-1", "c < 0 with kappa nowhere negative: integral(kappa e^u) = c |V| < 0 is "
               "impossible (integrated equation)"),
    ])
    def test_integrated_equation_certifies_above_one(self, tmp_path, capsys, c, reason):
        # at s > 1 no paper clause covers a positive kappa at c <= 0, but
        # integrating the equation does: these once ended in search failures
        g = tmp_path / "p3.json"
        g.write_text(json.dumps({
            "vertices": [{"id": f"x{i}", "mu": 1.0} for i in range(3)],
            "edges": [{"src": "x0", "dst": "x1", "w": 1.0}, {"src": "x1", "dst": "x2", "w": 1.0}],
        }))
        kap = fn_file(tmp_path, "k.json", {"x0": 1.0, "x1": 2.0, "x2": 0.5})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", str(g), "--s", "1.5", "--c", c, "--kappa", kap])
        assert (code, err) == (2, "")
        data = json.loads(out)
        assert data["method"] == "screen"
        assert data["verdict"] == {"status": "unsolvable", "reasons": [reason]}

    def test_search_failure_exit_3(self, p2_file, tmp_path, capsys, null_root_handler):
        # far below the threshold for this kappa: no solution exists
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-5.0", "--kappa", kap])
        assert code == 3
        assert out == ""
        assert re.fullmatch(NEWTON_FAILED, err)

    def test_monotone_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # one sweep leaves both monotone attempts at the cap, and the last is
        # the one error line
        monkeypatch.setattr(kw, "_MAX_ITER_MONOTONE", 1)
        path5 = tmp_path / "path5.json"
        path5.write_text(json.dumps({
            "vertices": [{"id": f"v{i}", "mu": 1.0} for i in range(5)],
            "edges": [{"src": f"v{i}", "dst": f"v{i + 1}", "w": 1.0} for i in range(4)]}))
        kap = fn_file(tmp_path, "k5.json", dict(zip([f"v{i}" for i in range(5)],
                                                    [-1.0, -2.0, -0.5, -1.0, -1.5])))
        code, out, err = run_cli(capsys, ["kw", "--graph", str(path5), "--s", "0.5", "--c", "-1",
                                          "--kappa", kap, "--method", "monotone"])
        assert (code, out) == (3, "")
        assert err == "error: search failure: monotone-iteration: iteration cap reached\n"

    def test_subnormal_negative_c_exit_3(self, p2_file, tmp_path, capsys):
        # c / 2 underflows to -0.0, where the stable walk has no start
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-5e-324", "--kappa", kap])
        assert (code, out) == (3, "")
        assert re.fullmatch(NEWTON_FAILED, err)

    @pytest.mark.parametrize("s", ["0.5", "1.5", "2.5"])
    @pytest.mark.parametrize("c", ["1e150", "1e300"])
    def test_overflowing_descent_exit_3_without_warnings(self, p2_file, tmp_path, capsys,
                                                         c, s):
        # the descent's CG inner products overflow at this c: one error line,
        # and no raw RuntimeWarning
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, ["kw", "--graph", p2_file, "--s", s, "--c", c, "--kappa", kap])
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (3, "")
        assert re.fullmatch(NEWTON_FAILED, err)

    @pytest.mark.parametrize("s", ["2", "3", "4"])
    def test_zero_c_drift_exit_3(self, p2_file, tmp_path, capsys, s):
        # integrating the equation forces u1 = u2 and then kappa e^u = 0: no
        # solution exists, and Newton's drift toward -infinity is not one; its
        # residual is within tol, so the message names the drift
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -1.0})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", s, "--c", "0", "--kappa", kap])
        assert code == 3
        assert out == ""
        assert re.search(NEWTON_FAILED + "$", err)
        assert re.search(r"smallest residual \S+, a drift: \S+ of the equation's scale \S+\)\n$",
                         err)

    def test_zero_c_positive_integral_exit_3(self, random_connected, tmp_path, capsys):
        # s > 1 leaves this c = 0 problem unscreened; the solve must end in a
        # typed failure, not a usage error
        rng = np.random.default_rng(120)
        g = random_connected(rng, 120)
        kappa = rng.normal(size=g.n)
        kappa += (1.9 - float(kappa @ g.mu)) / g.volume
        kap = fn_file(tmp_path, "k.json", dict(zip(g.ids, kappa.tolist())))
        code, _, _ = run_cli(
            capsys, ["kw", "--graph", graph_file(tmp_path, g), "--s", "1.5",
                     "--c", "0", "--kappa", kap])
        assert code == 3

    def test_zero_c_overflowing_descent_exit_0(self, random_connected, tmp_path, capsys):
        # a certified-solvable c = 0 problem whose descent overflowed e^u at
        # vertices of both kappa signs, which once ended in a usage error
        rng = np.random.default_rng(18)
        g = random_connected(rng, 20)
        kappa = rng.normal(size=g.n) - 0.3
        kap = fn_file(tmp_path, "k.json", dict(zip(g.ids, kappa.tolist())))
        code, out, _ = run_cli(
            capsys, ["kw", "--graph", graph_file(tmp_path, g), "--s", "2.5",
                     "--c", "0", "--kappa", kap])
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "variational-zero-c"
        assert data["residual_inf"] <= 1e-8

    @pytest.mark.parametrize("c", ["1e308", "1.7e308"])
    def test_overflowing_constraint_mass_exit_3(self, p2_file, tmp_path, capsys, c):
        # c |V| overflows; every input is valid, so this is no usage error
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", c, "--kappa", kap])
        assert code == 3
        assert out == ""
        assert re.fullmatch(NEWTON_FAILED, err)

    @pytest.mark.parametrize("c", ["-1e-3", "-1E2", "-2.5e+0"])
    def test_negative_c_in_exponent_form(self, p2_file, tmp_path, capsys, c):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -1.5})
        argv = ["kw", "--graph", p2_file, "--s", "0.5", "--kappa", kap]
        code, out, err = run_cli(capsys, [*argv, "--c", c])
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, [*argv, f"--c={c}"])

    def test_monotone_method_flag(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -1.0})
        code, out, _ = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-2.0",
                     "--kappa", kap, "--method", "monotone"])
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "monotone-iteration"
        assert data["solution"]["values"]["x1"] == pytest.approx(
            math.log(2.0), abs=1e-7
        )

    def test_monotone_from_the_continuation_point_at_loose_tol(self, p2_file, tmp_path,
                                                               capsys):
        # kappa > 0 somewhere: "monotone" starts from the continuation point,
        # whose slack must be nonnegative at this tol too (it dipped to
        # -8.9e-9, a usage error)
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-1e-5", "--tol", "1e-4",
                     "--kappa", kap, "--method", "monotone"])
        assert (code, err) == (0, "")
        assert json.loads(out)["method"] == "monotone-iteration"


class TestThresholdCmd:
    def test_bracket(self, p2_file, tmp_path, capsys, p2_threshold):
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, _ = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--tol", "1e-3"])
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "bracketed"
        assert data["c_low"] < data["c_high"] < 0
        assert data["width"] <= 1e-3
        # the bracket must contain the analytic threshold for this instance
        # (the bracket tolerance flag must not loosen the solve residual)
        assert data["c_low"] <= p2_threshold <= data["c_high"]

    def test_no_solvable_start_exit_3(self, p2_file, tmp_path, capsys, monkeypatch):
        # every one of the 16 starts near zero fails, as it does unpatched
        # on P2 with w = 1e-12, whose threshold -1.0e-7 lies above them all
        monkeypatch.setattr(kw, "_damped_newton", lambda op, kappa, c, u0, opts: (u0, 0))
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5", "--kappa", kap])
        assert (code, out) == (3, "")
        assert err == "error: search failure: threshold: no solvable c found near zero\n"

    def test_bracket_width_is_not_the_residual_tolerance(self, p2_file, tmp_path, capsys):
        # a wide bracket still verifies c_high to the default 1e-8 residual
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, _ = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--tol", "0.5"])
        assert code == 0
        data = json.loads(out)
        g = load_graph(json.dumps(P2_DOC))
        values = data["attained_solution_at_threshold"]["values"]
        p = kw.KWProblem(graph=g, s=0.5, c=data["c_high"], kappa=np.array([1.0, -3.0]))
        u = np.array([values[v] for v in g.ids])
        assert kw.check_solution(p, u).residual_inf <= 1e-8

    def test_minus_infinity(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -2.0})
        code, out, _ = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--tol", "1e-3"])
        assert code == 0
        assert json.loads(out)["status"] == "threshold-is-minus-infinity"

    def test_zero_kappa_is_a_usage_error(self, p2_file, tmp_path, capsys):
        # kw --c -1 certifies this kappa unsolvable (exit 2)
        kap = fn_file(tmp_path, "k.json", {"x1": 0.0, "x2": 0.0})
        code, out, err = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5", "--kappa", kap])
        assert code == 1
        assert out == ""
        assert err == ("error: threshold undefined: integral(kappa) >= 0 and every c < 0 "
                       "is certified unsolvable: c < 0 requires the integral of kappa to be "
                       "negative (necessary condition fails)\n")


class TestCheckCmd:
    def test_passes_on_p2(self, p2_file, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--graph", p2_file, "--s", "0.5", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_overflowing_moser_bound_passes_silently(self, path40, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, ["check", "--graph", graph_file(tmp_path, path40), "--s", "1.5"])
        assert code == 0
        assert err == ""
        moser = [e for e in json.loads(out)["entries"] if "moser-bound" in e["name"]]
        assert len(moser) == 2
        assert all(e["passed"] and e["tolerance"] is None for e in moser)

    def test_huge_weight_is_a_numerical_failure(self, tmp_path, capsys):
        # 2 d/mu = 1.6e308 is finite, so the graph loads; the checks end in
        # a typed numerical failure, not in a usage error
        path = tmp_path / "g.json"
        path.write_text(json.dumps(dict(P2_DOC, edges=[{"src": "x1", "dst": "x2", "w": 0.8e308}])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, ["check", "--graph", str(path), "--s", "0.5"])
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: numerical failure: ")

    def test_failed_solve_is_a_failed_entry(self, tmp_path, capsys):
        # on P2 with w = 1e200 the suite's own solves fail with NotSolved
        path = tmp_path / "g.json"
        path.write_text(json.dumps(dict(P2_DOC, edges=[{"src": "x1", "dst": "x2", "w": 1e200}])))
        code, out, err = run_cli(capsys, ["check", "--graph", str(path), "--s", "0.5"])
        assert code == 4
        entries = {e["name"]: e for e in json.loads(out)["entries"]}
        recovery = entries["manufactured-recovery"]
        assert recovery["passed"] is False
        assert math.isfinite(recovery["measured"])
        assert recovery["witness"].startswith("problem ")
        assert "NotSolved" in recovery["witness"]
        failed = [name for name, e in entries.items() if not e["passed"]]
        assert err.splitlines() == [line for line in err.splitlines()
                                    if line.startswith("error: check failed: ")]
        assert len(err.splitlines()) == len(failed)

    def test_failed_entry_writes_one_error_line(
            self, p2_file, capsys, monkeypatch, null_root_handler):
        entry = CheckEntry(name="s=0.5:fake", passed=False, measured=0.5,
                           tolerance=1e-9, citation="a failing entry")
        monkeypatch.setattr("fraclap.cli.run_suite",
                            lambda g, s_list, seed: CheckReport([entry]))
        code, out, err = run_cli(capsys, ["check", "--graph", p2_file])
        assert code == 4
        assert json.loads(out)["passed"] is False
        assert err == "error: check failed: s=0.5:fake measured=0.5 tol=1e-09\n"


class TestNumericalFailureExit:
    def test_unresolvable_zero_modes_exit_4(self, tmp_path, capsys):
        # the unit path with mu(x1) = 1e-300 has lambda = 1 exactly, below
        # the zero threshold relative to lambda_max = 2e300
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "vertices": [{"id": "x0", "mu": 1.0}, {"id": "x1", "mu": 1e-300},
                         {"id": "x2", "mu": 1.0}],
            "edges": [{"src": "x0", "dst": "x1", "w": 1.0},
                      {"src": "x1", "dst": "x2", "w": 1.0}],
        }))
        code, out, err = run_cli(capsys, ["spectrum", "--graph", str(path)])
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: numerical failure: NumericalError: 2 eigenvalues ")


    def test_quadrature_tolerance_exit_4(self, p2_file, capsys, null_root_handler):
        code, out, err = run_cli(
            capsys, ["kernel", "--graph", p2_file, "--s", "0.5", "--oracle",
                     "--tol", "1e-300"])
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: numerical failure: QuadratureError: ")

    @pytest.mark.parametrize("error", [
        OverflowError("Numerical result out of range"),
        FloatingPointError("overflow encountered"),
        np.linalg.LinAlgError("Singular matrix"),
    ])
    def test_stray_arithmetic_error_exit_4(self, p2_file, capsys, monkeypatch, error):
        def handler(args):
            raise error

        monkeypatch.setattr("fraclap.cli._cmd_spectrum", handler)
        code, out, err = run_cli(capsys, ["spectrum", "--graph", p2_file])
        assert code == 4
        assert out == ""
        assert "Traceback" not in err


class TestSpectrumAtScale:
    @pytest.fixture
    def graph_path(self, random_connected, tmp_path):
        return graph_file(tmp_path, random_connected(np.random.default_rng(5), 200))

    def test_stdout_and_out_file_agree_and_round_trip(self, graph_path, tmp_path, capsys):
        target = tmp_path / "spectrum.json"
        code, out, _ = run_cli(capsys, ["spectrum", "--graph", graph_path])
        assert code == 0
        assert main(["spectrum", "--graph", graph_path, "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == out
        assert out.endswith("]\n}\n")
        sd = decompose(load_graph(open(graph_path, encoding="utf-8").read()))
        data = json.loads(out)
        assert data["lambdas"] == sd.lambdas.tolist()
        assert data["phis"] == sd.phis.T.tolist()

    def test_nonfinite_deep_in_array_exit_4_without_file(
            self, graph_path, tmp_path, capsys, monkeypatch):
        def poisoned(g):
            sd = decompose(g)
            phis = sd.phis.copy()
            phis[150, 170] = np.nan
            return SpectralDecomposition(graph=g, lambdas=sd.lambdas, phis=phis)

        monkeypatch.setattr("fraclap.cli.decompose", poisoned)
        target = tmp_path / "spectrum.json"
        code, out, err = run_cli(
            capsys, ["spectrum", "--graph", graph_path, "--out", str(target)])
        assert code == 4
        assert out == ""
        assert "Traceback" not in err
        assert not target.exists()


    def test_streamed_arrays_match_reference_text(self, graph_path, capsys):
        # byte for byte the per-float serializer's text of the same arrays
        sd = decompose(load_graph(open(graph_path, encoding="utf-8").read()))
        code, out, _ = run_cli(capsys, ["spectrum", "--graph", graph_path])
        assert code == 0
        assert out == reference_format_json(
            {"lambdas": sd.lambdas.tolist(), "phis": sd.phis.T.tolist()}) + "\n"
        code, out, _ = run_cli(capsys, ["kernel", "--graph", graph_path, "--s", "0.5"])
        assert code == 0
        assert out == reference_format_json(build_operator(sd, 0.5).kernel.tolist()) + "\n"

    @pytest.mark.parametrize("to_file", [True, False], ids=["out-file", "stdout"])
    def test_nonfinite_deep_in_kernel_exit_4_without_output(
            self, graph_path, tmp_path, capsys, monkeypatch, to_file):
        def poisoned(sd, s):
            kernel = spectral_kernel(sd, s).copy()
            kernel[190, 120] = np.nan
            return kernel

        monkeypatch.setattr("fraclap.cli.spectral_kernel", poisoned)
        target = tmp_path / "kernel.json"
        argv = ["kernel", "--graph", graph_path, "--s", "0.5"]
        code, out, err = run_cli(capsys, argv + (["--out", str(target)] if to_file else []))
        assert code == 4
        assert out == ""
        assert err == ("error: numerical failure: NumericalError: "
                       "refusing to serialize non-finite value nan\n")
        assert not target.exists()


class TestProcessInvocation:
    def test_module_entry(self, p2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclap.cli", "spectrum", "--graph", p2_file],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["lambdas"] == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_root_logger_untouched(self, p2_file, isolated):
        # a fresh interpreter, so the root logger starts with no handler
        argv = ["kernel", "--graph", p2_file, "--s", "0.5", "--oracle", "--tol", "1e-300"]
        result = isolated(
            "import json, logging\n"
            "from fraclap.cli import main\n"
            "root = logging.getLogger()\n"
            "before = (list(root.handlers), root.level)\n"
            f"code = main({argv!r})\n"
            "print(json.dumps({'code': code,\n"
            "                  'same': (list(root.handlers), root.level) == before}))\n"
        )
        assert result == {"code": 4, "same": True}

    def test_deferred_subpackages_load_only_where_called(self, p2_file, tmp_path, isolated):
        # fresh interpreters: this suite itself imports scipy.optimize, and
        # pytest imports scipy.sparse for the filterwarnings setting
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        k = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        kneg = fn_file(tmp_path, "kneg.json", {"x1": -1.0, "x2": -1.5})
        g = ["--graph", p2_file]
        spectral = [["spectrum", *g], ["kernel", *g, "--s", "0.5"],
                    ["heat", *g, "--t", "1", "--input", u]]
        apply = [["apply", *g, "--s", "0.5", "--input", u]]
        poisson = [["poisson", *g, "--s", "0.5", "--input", u]]
        threshold = [["threshold", *g, "--s", "0.5", "--kappa", k]]
        kw = [["kw", *g, "--s", "0.5", "--c", "-1", "--kappa", kneg],
              ["kw", *g, "--s", "0.5", "--c", "-0.05", "--kappa", k],
              ["kw", *g, "--s", "0.5", "--c", "1", "--kappa", k],
              ["kw", *g, "--s", "0.5", "--c", "0", "--kappa", k]]
        oracle = [["kernel", *g, "--s", "0.5", "--oracle"]]

        def stages(*groups):
            # each stage runs its commands, then lists the scipy modules loaded so far
            return isolated(
                "import contextlib, io, json, sys\n"
                "import fraclap\n"
                "from fraclap.cli import main\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
                "                  and m.count('.') <= 1)\n"
                "out = [{'codes': [], 'loaded': loaded()}]\n"
                f"for argvs in {list(groups)!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        codes = [main(argv) for argv in argvs]\n"
                "    out.append({'codes': codes, 'loaded': loaded()})\n"
                "print(json.dumps(out))\n"
            )

        sparse, linalg = "scipy.sparse", "scipy.linalg"
        first = stages(spectral, apply, threshold)
        assert [stage["codes"] for stage in first] == [[], [0, 0, 0], [0], [0]]
        imported, after_spectral, after_apply, after_threshold = (
            stage["loaded"] for stage in first)
        assert imported == after_spectral == []
        assert sparse in after_apply and linalg not in after_apply
        assert linalg in after_threshold
        second = stages(poisson, kw, oracle)
        assert [stage["codes"] for stage in second] == [[], [0], [0, 0, 0, 0], [0]]
        _, after_poisson, after_kw, after_oracle = (stage["loaded"] for stage in second)
        assert sparse in after_poisson and linalg not in after_poisson
        assert linalg in after_kw
        # only the oracle's quadrature loads these; scipy.integrate imports
        # scipy.optimize itself, and no solve route does
        lazy = ["scipy.integrate", "scipy.optimize", "scipy.special"]
        for loaded in (after_threshold, after_kw):
            assert not set(lazy) & set(loaded)
        assert set(lazy) <= set(after_oracle)

    def test_byte_identical_runs(self, p2_file):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "fraclap.cli", "spectrum",
                 "--graph", p2_file],
                capture_output=True, timeout=120,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv, exit_code, message", [
        (["spectrum", "--graph", "{tmp}/missing.json"], 1,
         "No such file or directory: '{tmp}/missing.json'"),
        (["apply", "--graph", "{p2}", "--s", "-1", "--input", "{u}"], 1,
         "exponent must be a positive real, got -1.0"),
        (["kernel", "--graph", "{p2}", "--s", "1.5"], 1,
         "kernel is defined for exponents in (0, 1); got 1.5"),
        (["kw", "--graph", "{p2}", "--s", "0.5", "--c", "-5", "--kappa", "{k}"], 3,
         "search failure: newton-continuation: all starts failed"),
        (["kernel", "--graph", "{p2}", "--s", "0.5", "--oracle", "--tol", "1e-300"], 4,
         "numerical failure: QuadratureError: requested tolerance 1e-300 unreached"),
        # mu = (1e9, 1): c |V| overflows in the positive-c objective, and mu r
        # in a Newton step at c = -1e300; neither may write a raw warning
        (["kw", "--graph", "{heavy}", "--s", "0.5", "--c", "1e300", "--kappa", "{k}"], 3,
         "search failure: newton-continuation: all starts failed"),
        (["kw", "--graph", "{heavy}", "--s", "2.5", "--c", "1e300", "--kappa", "{k}"], 3,
         "search failure: newton-continuation: all starts failed"),
        (["kw", "--graph", "{heavy}", "--s", "0.5", "--c", "-1e300", "--kappa", "{kneg}"], 3,
         "search failure: newton-continuation: all starts failed"),
    ], ids=["missing-file", "apply-negative-s", "kernel-s-above-one",
            "kw-search-failure", "kernel-quadrature-failure", "kw-overflowing-positive-c",
            "kw-overflowing-positive-c-s2.5", "kw-overflowing-negative-c"])
    def test_usage_error_printed_once(
            self, p2_file, tmp_path, isolated_cli, argv, exit_code, message):
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps({**P2_DOC, "vertices": [{"id": "x1", "mu": 1e9},
                                                            {"id": "x2", "mu": 1.0}]}))
        paths = {"p2": p2_file, "u": fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0}),
                 "k": fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0}),
                 "kneg": fn_file(tmp_path, "kneg.json", {"x1": -1.0, "x2": -2.0}),
                 "heavy": str(heavy), "tmp": str(tmp_path)}
        code, out, err = isolated_cli([a.format(**paths) for a in argv])
        assert code == exit_code
        assert out == ""
        # one line, in the one format every failure shares
        assert err.count(message.format(**paths)) == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestInvalidNumericFlags:
    """Non-finite or out-of-range numeric flags end in exit 1 with a message,
    never in a run that skips its checks or in a raw conversion error."""

    def assert_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_kw_tol_must_be_finite_and_positive(self, p2_file, tmp_path, capsys, tol):
        # solvable: a NaN tolerance once passed every residual check, exit 0
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": 1.0})
        self.assert_usage_error(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "1.0",
                     "--kappa", kap, "--tol", tol],
            "tol must be finite and positive")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_threshold_tol_must_be_finite(self, p2_file, tmp_path, capsys, tol):
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        self.assert_usage_error(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--tol", tol],
            "tol must be finite and positive")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_threshold_cap_at_least_one(self, p2_file, tmp_path, capsys, cap):
        # c_low = 2 c_high of a zero-probe log was never probed
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        self.assert_usage_error(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--cap", cap],
            "cap must be at least 1")

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_kw_max_iter_at_least_one(self, p2_file, tmp_path, capsys, max_iter):
        # a cap below 1 still ends in exit 1: kw takes no --max-iter at all
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        self.assert_usage_error(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-1.0",
                     "--kappa", kap, "--method", "monotone", "--max-iter", max_iter],
            f"unrecognized arguments: --max-iter {max_iter}")

    def test_kw_takes_no_max_iter(self, p2_file, tmp_path, capsys):
        # the monotone sweep cap is fixed, like the Newton and trust-region caps
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        self.assert_usage_error(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-1.0",
                     "--kappa", kap, "--method", "monotone", "--max-iter", "5"],
            "unrecognized arguments: --max-iter 5")
        with pytest.raises(TypeError, match="max_iter_monotone"):
            kw.SolveOptions(max_iter_monotone=5)

    @pytest.mark.parametrize("command", ["kw", "check"])
    def test_seed_nonnegative(self, p2_file, tmp_path, capsys, command):
        # check refuses a negative seed before any check runs; kw has no
        # --seed, since no solve route draws a random start
        extra, message = {
            "kw": (["--s", "0.5", "--c", "-2.0", "--kappa",
                    fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -1.0})],
                   "unrecognized arguments: --seed -1"),
            "check": ([], "--seed must be at least 0"),
        }[command]
        self.assert_usage_error(
            capsys, [command, "--graph", p2_file, *extra, "--seed", "-1"], message)

    def test_kw_takes_no_seed(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        self.assert_usage_error(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-0.05", "--kappa", kap,
                     "--seed", "1"], "unrecognized arguments: --seed 1")
        with pytest.raises(TypeError, match="seed"):
            kw.SolveOptions(seed=0)

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_heat_time_finite_and_nonnegative(self, p2_file, tmp_path, capsys, t):
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        self.assert_usage_error(
            capsys, ["heat", "--graph", p2_file, "--t", t, "--input", u],
            "time t must be finite and nonnegative")

    def test_kernel_oracle_nan_tol(self, p2_file, capsys):
        self.assert_usage_error(
            capsys, ["kernel", "--graph", p2_file, "--s", "0.5", "--oracle",
                     "--tol", "nan"],
            "tol must be finite and positive")

    @pytest.mark.parametrize("command", ["apply", "poisson", "kw"])
    @pytest.mark.parametrize("s", ["inf", "nan", "0", "-1"])
    def test_invalid_exponent_rejected_before_warning(
            self, p2_file, tmp_path, capsys, command, s):
        f = fn_file(tmp_path, "f.json", {"x1": 1.0, "x2": -1.0})
        extra = (["--c", "1.0", "--kappa", f] if command == "kw"
                 else ["--input", f])
        code, out, err = run_cli(
            capsys, [command, "--graph", p2_file, "--s", s, *extra])
        assert code == 1
        assert out == ""
        assert "exponent must be a positive real" in err
        assert "integer-order" not in err
        assert "Traceback" not in err


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        assert main(["spectrum"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["fly"]) == 1

    def test_missing_file(self, capsys):
        assert main(["spectrum", "--graph", "/nonexistent/g.json"]) == 1

    def test_malformed_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--graph", str(path)]) == 1

    def test_disconnected_graph(self, tmp_path, capsys):
        path = tmp_path / "dis.json"
        path.write_text(json.dumps({
            "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
            "edges": [],
        }))
        assert main(["spectrum", "--graph", str(path)]) == 1

    @pytest.mark.parametrize("command, graph, values, err", [
        (["spectrum"], {"vertices": [], "edges": []}, None,
         "graph needs at least one vertex"),
        (["apply", "--s", "0.5", "--input"], P2_DOC, '{"vals": {"x1": 0, "x2": 1}}',
         "malformed function document: 'values'"),
        (["apply", "--s", "0.5", "--input"], P2_DOC, '{"values": {"x1": NaN, "x2": 1}}',
         "function values must be finite"),
        (["kw", "--s", "0.5", "--c", "nan", "--kappa"], P2_DOC,
         '{"values": {"x1": 1, "x2": -3}}', "c must be finite"),
        (["kw", "--s", "0.5", "--c", "1", "--method", "monotone", "--kappa"], P2_DOC,
         '{"values": {"x1": 1, "x2": -3}}', "monotone route requires c < 0"),
        (["kw", "--s", "1.5", "--c", "-1", "--method", "monotone", "--kappa"], P2_DOC,
         '{"values": {"x1": 1, "x2": -3}}',
         "monotone route is unavailable for s > 1 (no order preservation)"),
    ], ids=["no-vertices", "no-values", "nan-value", "nan-c", "monotone-at-positive-c",
            "monotone-above-1"])
    def test_input_rejection_is_one_error_line(self, tmp_path, capsys, command, graph,
                                               values, err):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(graph))
        argv = [command[0], "--graph", str(graph_path), *command[1:]]
        if values is not None:
            values_path = tmp_path / "f.json"
            values_path.write_text(values)
            argv.append(str(values_path))
        assert run_cli(capsys, argv) == (1, "", f"error: {err}\n")

    def test_out_file(self, p2_file, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, ["spectrum", "--graph", p2_file, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lambdas"][1] == pytest.approx(2.0)


class TestOverflowingDegreeRejected:
    """A vertex whose 2 d/mu overflows is rejected as the graph loads,
    before any command computes with it."""

    GRAPHS = {
        "subnormal-mu": {  # d / mu = 2 / 1e-310 overflows
            "vertices": [{"id": "x0", "mu": 1.0}, {"id": "x1", "mu": 1e-310},
                         {"id": "x2", "mu": 1.0}],
            "edges": [{"src": "x0", "dst": "x1", "w": 1.0},
                      {"src": "x1", "dst": "x2", "w": 1.0}],
        },
        "overflowing-degree": {  # d = 2.4e308 overflows at the hub of a star
            "vertices": [{"id": x, "mu": 1.0} for x in ("x0", "x1", "x2", "x3")],
            "edges": [{"src": "x1", "dst": y, "w": 0.8e308} for y in ("x0", "x2", "x3")],
        },
        "overflowing-spectrum": {  # d is finite, but 2 d / mu = 1.8e308 is not
            "vertices": [{"id": "x0", "mu": 1.0}, {"id": "x1", "mu": 1.0},
                         {"id": "x2", "mu": 1.0}],
            "edges": [{"src": "x0", "dst": "x1", "w": 1.0},
                      {"src": "x1", "dst": "x2", "w": 0.9e308}],
        },
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["kernel", "--s", "0.5"], ["apply", "--s", "0.5", "--input", "{u}"],
        ["poisson", "--s", "0.5", "--input", "{u}"],
        ["kw", "--s", "0.5", "--c", "-1", "--kappa", "{k}"],
        ["apply", "--s", "1.5", "--input", "{u}"], ["apply", "--s", "2", "--input", "{u}"],
        ["heat", "--t", "1", "--input", "{u}"], ["check"],
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_one_error_line(self, tmp_path, capsys, graph, argv):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.GRAPHS[graph]))
        # never read: the graph is rejected first
        files = {"u": fn_file(tmp_path, "u.json", {"x0": 1.0, "x1": -2.0, "x2": 0.5}),
                 "k": fn_file(tmp_path, "k.json", {"x0": -1.0, "x1": -2.0, "x2": -0.5})}
        argv = [argv[0], "--graph", str(path), *(a.format(**files) for a in argv[1:])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        message = "error: vertex 'x1': 2 d/mu, d the weighted degree, must be a finite double"
        assert err.startswith(f"{message}; got mu=")
        assert len(err.splitlines()) == 1


class TestOutOfRangeInputsEnd:
    """Inputs at the edge of the double range end with a message instead of
    running on; each command runs isolated, so a hang fails by timeout."""

    @pytest.mark.parametrize("s, named", [("1e7", "s=1e+07"), ("100000", "s=100000")])
    def test_apply_exponent_out_of_range(self, p2_file, tmp_path, isolated_cli, s, named):
        # 2^s overflows; the message blames s, not the input function
        u = fn_file(tmp_path, "u.json", {"x1": 1.0, "x2": -1.0})
        code, out, err = isolated_cli(
            ["apply", "--graph", p2_file, f"--s={s}", "--input", u])
        assert code == 1
        assert out == ""
        assert named in err
        assert "function values" not in err

    def test_kw_exponent_out_of_range(self, p2_file, tmp_path, isolated_cli):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -1.0})
        code, out, err = isolated_cli(
            ["kw", "--graph", p2_file, "--s=1e300", "--c=-1", "--kappa", kap])
        assert code == 1
        assert out == ""
        assert "s=1e+300" in err

    def test_threshold_tol_below_double_spacing(self, p2_file, tmp_path, isolated_cli):
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, out, err = isolated_cli(
            ["threshold", "--graph", p2_file, "--s", "0.5", "--kappa", kap,
             "--tol", "1e-17"])
        assert code == 0, err
        data = json.loads(out)
        assert data["c_low"] < data["c_high"] < 0
        assert not data["cap_reached"]

    def test_check_needs_two_vertices(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"vertices": [{"id": "a", "mu": 1.0}], "edges": []}))
        code, out, err = run_cli(capsys, ["check", "--graph", str(path)])
        assert code == 1
        assert out == ""
        assert "at least 2 vertices" in err
