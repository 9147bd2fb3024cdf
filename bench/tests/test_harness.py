"""Tests of the benchmark harness: seeded inputs, correctness checks and
failure accounting. Small graphs only, so they run in well under a second."""

import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import fraclap  # noqa: E402
import harness  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from gen_inputs import random_graph  # noqa: E402


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_inputs_are_deterministic_per_seed(tmp_path):
    docs = [random_graph(np.random.default_rng(seed), 30).document() for seed in (5, 5, 6)]
    assert docs[0] == docs[1] != docs[2]
    fraclap.load_graph(docs[2])  # connected and valid

    states = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        states.append(workloads.prepare_cli(np.random.default_rng(seed), str(tmp_path / name)))
    assert _files(tmp_path / "a") == _files(tmp_path / "b") != _files(tmp_path / "c")
    assert all(np.array_equal(states[0].kappas[k][1], states[1].kappas[k][1]) for k in states[0].kappas)


def _small_kw_state():
    g = fraclap.load_graph(random_graph(np.random.default_rng(0), 20).document())
    op = fraclap.build_operator(fraclap.decompose(g), 0.5)
    problems = [
        ("negative_kappa", fraclap.KWProblem(graph=g, s=0.5, c=-1.0 - k, kappa=-np.ones(g.n)))
        for k in range(3)
    ]
    return workloads.KWState(ops={0.5: op}, problems=problems)


def test_kw_check_rejects_perturbed_solution():
    st = _small_kw_state()
    _, problem = st.problems[0]
    op = st.ops[0.5]
    solution = fraclap.solve(problem, op=op).solution
    verify.check_kw(problem, solution, op, workloads.SOLVE_TOL)
    perturbed = solution.copy()
    perturbed[3] += 1e-6
    with pytest.raises(verify.CheckFailed):
        verify.check_kw(problem, perturbed, op, workloads.SOLVE_TOL)


def test_injected_overflow_is_one_failed_job(monkeypatch):
    st = _small_kw_state()
    real_solve = fraclap.solve

    def solve(p, opts=None, op=None):
        if p is st.problems[1][1]:
            raise OverflowError("(34, 'Numerical result out of range')")
        return real_solve(p, opts, op)

    monkeypatch.setattr(fraclap, "solve", solve)
    results = harness.run_pass(workloads.kw_jobs(st))
    assert [r.error for r in results] == [None, "OverflowError", None]
    assert not any(r.wrong for r in results)


def test_wrong_output_is_a_failed_and_incorrect_job():
    st = _small_kw_state()
    job = workloads.kw_jobs(st)[0]
    job.call = lambda ctx: fraclap.SolveReport(
        solution=np.full(st.ops[0.5].graph.n, 0.5), residual_inf=0.0, method="monotone-iteration",
        iterations=0, energy=None)
    (result,) = harness.run_pass([job])
    assert result.wrong and result.error.startswith("CheckFailed")


def test_traced_pass_records_layers_and_restores_functions():
    from tracing import Tracer, summarize

    st = _small_kw_state()
    originals = (fraclap.solve, fraclap.kazdan_warner.solve, np.linalg.solve, fraclap.cli.format_json)
    tracer = Tracer()
    tracer.install()
    try:
        results = harness.run_pass(workloads.kw_jobs(st), tracer)
    finally:
        tracer.uninstall()
    assert (fraclap.solve, fraclap.kazdan_warner.solve, np.linalg.solve,
            fraclap.cli.format_json) == originals
    assert not any(r.error for r in results)
    roots = [sp for sp in tracer.spans if sp.parent is None]
    assert [sp.attrs["job"] for sp in roots] == [r.name for r in results]
    metrics = summarize(tracer.spans, passes=1)
    assert metrics["kazdan_warner.solve.monotone_iterations"] > 0
    assert metrics["lapack.cho_solve_calls"] > 0
    assert metrics["kazdan_warner.self_s"] > 0


def test_pass_count_depends_only_on_arguments():
    assert harness.pass_count(16, 4.7, trace=0) == 3
    assert harness.pass_count(16, 4.7, trace=1) == 4  # untraced and traced in turn
    assert harness.pass_count(16, 3.9, trace=1) == 4
    assert harness.pass_count(16, 21.5, trace=0) == 1
    assert harness.pass_count(16, 21.5, trace=1) == 2


def test_job_list_seconds_drops_one_slow_pass_per_job():
    def results(*seconds):
        return [harness.JobResult(f"job{k}", t) for k, t in enumerate(seconds)]

    passes = [results(1.0, 2.0), results(9.0, 2.1), results(1.1, 8.0)]
    assert harness.job_list_seconds(passes) == pytest.approx(1.1 + 2.1)
