import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fraclap.cli import format_json, main

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


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatJson:
    def test_floats_have_17_significant_digits(self):
        text = format_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_exact(self):
        values = [1 / 3, math.pi, 2.0 ** -52, -0.0, 1e300]
        text = format_json(values)
        assert [float(v) for v in json.loads(text)] == values

    def test_rejects_nonfinite(self):
        with pytest.raises(Exception):
            format_json({"x": float("nan")})

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
        assert data["solution"] is None
        assert data["verdict"]["status"] == "unsolvable"

    def test_search_failure_exit_3(self, p2_file, tmp_path, capsys):
        # far below the threshold for this kappa: no solution exists
        kap = fn_file(tmp_path, "k.json", {"x1": 1.0, "x2": -3.0})
        code, _, _ = run_cli(
            capsys, ["kw", "--graph", p2_file, "--s", "0.5", "--c", "-5.0",
                     "--kappa", kap, "--max-iter", "500"])
        assert code == 3

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


class TestThresholdCmd:
    def test_bracket(self, p2_file, tmp_path, capsys):
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
        assert data["c_low"] <= -0.104136 <= data["c_high"]

    def test_minus_infinity(self, p2_file, tmp_path, capsys):
        kap = fn_file(tmp_path, "k.json", {"x1": -1.0, "x2": -2.0})
        code, out, _ = run_cli(
            capsys, ["threshold", "--graph", p2_file, "--s", "0.5",
                     "--kappa", kap, "--tol", "1e-3"])
        assert code == 0
        assert json.loads(out)["status"] == "threshold-is-minus-infinity"


class TestCheckCmd:
    def test_passes_on_p2(self, p2_file, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--graph", p2_file, "--s", "0.5", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestNumericalFailureExit:
    def test_quadrature_tolerance_exit_4(self, p2_file, capsys):
        code, _, _ = run_cli(
            capsys, ["kernel", "--graph", p2_file, "--s", "0.5", "--oracle",
                     "--tol", "1e-300"])
        assert code == 4

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


class TestProcessInvocation:
    def test_module_entry_with_log_env(self, p2_file):
        env = dict(os.environ, FRACLAP_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "fraclap.cli", "spectrum", "--graph", p2_file],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["lambdas"] == pytest.approx([0.0, 2.0], abs=1e-12)

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

    def test_out_file(self, p2_file, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, ["spectrum", "--graph", p2_file, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lambdas"][1] == pytest.approx(2.0)
