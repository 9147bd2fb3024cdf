"""The three benchmark workloads.

A workload has a set-up (``prepare``: input generation and file writes, plus,
for the library-user workload kw-solve-n400, loading the graph and building
the operators once) and a fixed job list that one pass runs in order. A job's
``call`` is the only code the benchmark times; it calls fraclap's public
functions and nothing else. Its ``check`` runs afterwards, untimed.

Why each workload exists is recorded next to its name in BENCHMARK.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

import fraclap
from fraclap import cli
import verify
from gen_inputs import random_graph, spectral_power

SOLVE_TOL = fraclap.SolveOptions().tol
THRESHOLD_TOL = 1e-4  # the CLI default bracket width


@dataclass
class Job:
    name: str
    call: Callable  # call(ctx) -> result; ctx maps earlier job names to results
    check: Callable  # check(result, ctx); raises verify.CheckFailed


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # prepare(rng, workdir) -> state
    jobs: Callable  # jobs(state) -> list of Job
    pass_seconds: float  # nominal time of one pass on a 2-vCPU VM; sets the pass count


class ExitStatus(Exception):
    """A CLI command returned a nonzero exit code inside the contract."""

    def __init__(self, code):
        super().__init__(f"exit {code}")
        self.code = code


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# operator-n2000: load, decompose, assemble every exponent regime, apply


OPERATOR_N = 2000
OPERATOR_EXPONENTS = (0.5, 1.5, 2.0, 2.5)  # kernel, odd, integer, even
HEAT_T = 1.0


@dataclass
class OperatorState:
    gi: object
    text: str
    u: np.ndarray
    f: np.ndarray


def prepare_operator(rng, workdir):
    gi = random_graph(rng, OPERATOR_N)
    text = gi.document()
    _write(os.path.join(workdir, "graph.json"), text)
    return OperatorState(gi=gi, text=text, u=rng.normal(size=gi.n), f=rng.normal(size=gi.n))


def operator_jobs(st):
    gi = st.gi
    jobs = [
        Job("load_graph", lambda ctx: fraclap.load_graph(st.text),
            lambda g, ctx: verify.check_graph(g, gi)),
        Job("decompose", lambda ctx: fraclap.decompose(ctx["load_graph"]),
            lambda sd, ctx: verify.check_eigenpairs(gi, sd.lambdas, sd.phis)),
    ]
    for s in OPERATOR_EXPONENTS:
        op_key = f"build_operator s={s:g}"
        jobs += [
            Job(op_key, lambda ctx, s=s: fraclap.build_operator(ctx["decompose"], s),
                lambda op, ctx: verify.check_operator(op, ctx["decompose"])),
            Job(f"frac_apply s={s:g}", lambda ctx, k=op_key: fraclap.frac_apply(ctx[k], st.u),
                lambda out, ctx, k=op_key: verify.check_apply(out, ctx[k], st.u)),
            Job(f"poisson s={s:g}",
                lambda ctx, k=op_key: fraclap.poisson_meanzero_solve(ctx[k], st.f),
                lambda out, ctx, k=op_key: verify.check_poisson(
                    out, st.f, gi.mu, ctx[k].power_matrix.__matmul__,
                    verify.norm_inf(ctx[k].power_matrix))),
        ]
    jobs.append(Job(
        "heat_apply", lambda ctx: fraclap.heat_apply(ctx["decompose"], HEAT_T, st.u),
        lambda out, ctx: verify.check_heat(
            out, st.u, HEAT_T, ctx["decompose"].lambdas, ctx["decompose"].phis, gi.mu),
    ))
    return jobs


# ---------------------------------------------------------------------------
# kw-solve-n400: many Kazdan-Warner problems on one graph, operators prebuilt


KW_N = 400
KW_GROUPS = 17  # six problems per group: 102 jobs
KW_EXPONENTS = (0.5, 1.5, 2.5)
# Amplitude of the manufactured solutions. At 0.5 the c < 0 family's monotone
# sweep counts became heavy-tailed (one job in 25 took 9x the mean); at 0.25
# kappa still changes sign (about 4% of vertices positive) and the per-job
# spread stays under half the mean.
KW_U_STAR_SCALE = 0.25


@dataclass
class KWState:
    ops: dict
    problems: list  # (kind, KWProblem)


def prepare_kw(rng, workdir):
    gi = random_graph(rng, KW_N)
    text = gi.document()
    _write(os.path.join(workdir, "graph.json"), text)
    g = fraclap.load_graph(text)
    sd = fraclap.decompose(g)
    ops = {s: fraclap.build_operator(sd, s) for s in KW_EXPONENTS}
    problems = []
    for _ in range(KW_GROUPS):
        # manufactured: kappa chosen so that a known u* solves the equation
        for kind, sign in (("positive_c", 1.0), ("zero_c", 0.0), ("negative_c", -1.0)):
            c = sign * rng.uniform(0.5, 2.0)
            u_star = rng.normal(scale=KW_U_STAR_SCALE, size=gi.n)
            kappa = (ops[0.5].op_matrix @ u_star + c) * np.exp(-u_star)
            problems.append((kind, fraclap.KWProblem(graph=g, s=0.5, c=c, kappa=kappa)))
        for s in KW_EXPONENTS:
            kappa = -rng.uniform(0.5, 2.0, gi.n)
            problems.append((f"negative_kappa s={s:g}", fraclap.KWProblem(
                graph=g, s=s, c=-rng.uniform(0.5, 2.0), kappa=kappa)))
    return KWState(ops=ops, problems=problems)


def kw_jobs(st):
    return [
        Job(f"solve {kind} #{i}",
            lambda ctx, p=p: fraclap.solve(p, op=st.ops[p.s]),
            lambda rep, ctx, p=p: verify.check_kw(p, rep.solution, st.ops[p.s], SOLVE_TOL))
        for i, (kind, p) in enumerate(st.problems)
    ]


# ---------------------------------------------------------------------------
# cli-n1000: every command in-process through fraclap.cli.main


CLI_N = 1000
CLI_SMALL_N = 60
CLI_KAPPA_DRAWS = 2
CLI_KW_S = 0.5
CLI_THRESHOLD_EXPONENTS = (0.5, 1.5)


@dataclass
class CLIState:
    gi: object
    small: object
    paths: dict
    u: np.ndarray
    kappas: dict  # file key -> (c, kappa)
    small_kappa: np.ndarray  # sign-changing, for the threshold command
    out: str

    @cached_property
    def library_graph(self):
        return fraclap.load_graph(self.gi.document())

    @cached_property
    def kw_operator(self):
        return fraclap.build_operator(fraclap.decompose(self.library_graph), CLI_KW_S)

    @cached_property
    def small_operators(self):
        g = fraclap.load_graph(self.small.document())
        sd = fraclap.decompose(g)
        return {s: fraclap.build_operator(sd, s) for s in CLI_THRESHOLD_EXPONENTS}


def prepare_cli(rng, workdir):
    gi = random_graph(rng, CLI_N)
    small = random_graph(rng, CLI_SMALL_N)
    u = rng.normal(size=gi.n)
    paths = {
        "graph": _write(os.path.join(workdir, "graph.json"), gi.document()),
        "small": _write(os.path.join(workdir, "small.json"), small.document()),
        "u": _write(os.path.join(workdir, "u.json"), gi.function_document(u)),
    }
    kappas = {}
    for k in range(CLI_KAPPA_DRAWS):
        z = rng.normal(size=gi.n)
        # c > 0 takes the standard-normal draw as is. c < 0 takes -(0.5 + |z|):
        # negative everywhere, so screening certifies it, and bounded away
        # from zero, since a near-zero kappa entry alone multiplies the
        # monotone sweep count (5255 sweeps against 612 on one draw).
        for key, c, kappa in ((f"kappa_neg{k}", -1.0, -(0.5 + np.abs(z))),
                              (f"kappa_pos{k}", 1.0, z)):
            paths[key] = _write(os.path.join(workdir, f"{key}.json"), gi.function_document(kappa))
            kappas[key] = (c, kappa)
    small_kappa = rng.normal(size=small.n) - 0.5
    paths["small_kappa"] = _write(os.path.join(workdir, "small_kappa.json"),
                                  small.function_document(small_kappa))
    return CLIState(gi=gi, small=small, paths=paths, u=u, kappas=kappas,
                    small_kappa=small_kappa, out=os.path.join(workdir, "out.json"))


def _cli_job(st, name, argv, check):
    """Run ``fraclap <argv> --out <file>`` in-process; the check parses the
    file (untimed) and then judges the payload."""
    def call(ctx):
        if os.path.exists(st.out):
            os.remove(st.out)
        code = cli.main(argv + ["--out", st.out])
        verify.require(code in verify.EXIT_CONTRACT, f"exit code {code} outside the contract")
        if code != 0:
            raise ExitStatus(code)
        return st.out

    return Job(name, call, lambda path, ctx: check(verify.load_output(path), ctx))


def cli_jobs(st):
    gi, p = st.gi, st.paths

    def check_spectrum(data, ctx):
        verify.check_eigenpairs(gi, data["lambdas"], np.asarray(data["phis"], float).T)

    def check_apply_odd(data, ctx):
        # the odd-m composition has no closed form; its image of u is
        # mu-orthogonal to constants and has nonnegative energy <u, image>
        image = gi.vector(data)
        scale = np.max(np.abs(image)) * gi.mu.sum()
        verify.close(gi.mu @ image, 0.0, scale, "mean of the s=1.5 image")
        verify.require(float(st.u @ (gi.mu * image)) >= 0.0, "negative s=1.5 energy")

    def check_apply_integer(data, ctx):
        lap = gi.laplacian
        expected = lap @ (lap @ st.u)
        verify.close(gi.vector(data), expected, np.max(np.abs(expected)), "s=2 image")

    def check_poisson(data, ctx):
        lam_ref, _ = gi.spectrum
        verify.check_poisson(gi.vector(data), st.u, gi.mu,
                             lambda x: gi.spectral_power_apply(2.5, x),
                             float(spectral_power(lam_ref, 2.5)[-1]))

    def check_heat(data, ctx):
        lam_ref, phis_ref = gi.spectrum
        verify.check_heat(gi.vector(data), st.u, HEAT_T, lam_ref, phis_ref, gi.mu)

    def check_kw(key):
        def check(data, ctx):
            c, kappa = st.kappas[key]
            problem = fraclap.KWProblem(graph=st.library_graph, s=CLI_KW_S, c=c, kappa=kappa)
            verify.require(data["residual_inf"] <= SOLVE_TOL, "reported residual above tol")
            verify.check_kw(problem, gi.vector(data["solution"]), st.kw_operator, SOLVE_TOL)
        return check

    def check_threshold(s):
        def check(data, ctx):
            verify.require(data["status"] == "bracketed", f"status {data['status']!r}")
            est = SimpleNamespace(
                c_low=data["c_low"], c_high=data["c_high"], cap_reached=data["cap_reached"],
                probes=tuple((p["c"], p["solved"]) for p in data["probes"]),
                attained_solution_at_threshold=st.small.vector(
                    data["attained_solution_at_threshold"]))
            op = st.small_operators[s]
            verify.check_threshold(
                est, lambda c: fraclap.KWProblem(graph=op.graph, s=s, c=c, kappa=st.small_kappa),
                op, THRESHOLD_TOL, SOLVE_TOL)
        return check

    def check_suite(data, ctx):
        failed = [e["name"] for e in data["entries"] if not e["passed"]]
        verify.require(data["passed"] and not failed, f"check entries failed: {failed}")

    graph, u = ["--graph", p["graph"]], ["--input", p["u"]]
    jobs = [
        _cli_job(st, "spectrum", ["spectrum", *graph], check_spectrum),
        _cli_job(st, "kernel s=0.5", ["kernel", *graph, "--s", "0.5"],
                 lambda data, ctx: verify.check_kernel(data, gi, 0.5)),
        _cli_job(st, "apply s=1.5", ["apply", *graph, "--s", "1.5", *u], check_apply_odd),
        _cli_job(st, "apply s=2", ["apply", *graph, "--s", "2", *u], check_apply_integer),
        _cli_job(st, "poisson s=2.5", ["poisson", *graph, "--s", "2.5", *u], check_poisson),
        _cli_job(st, "heat", ["heat", *graph, "--t", str(HEAT_T), *u], check_heat),
    ]
    for key, (c, _) in st.kappas.items():
        jobs.append(_cli_job(st, f"kw c={c:g} {key}", [
            "kw", *graph, "--s", str(CLI_KW_S), "--c", str(c), "--kappa", p[key],
        ], check_kw(key)))
    jobs += [
        _cli_job(st, "check s=0.5,1.5",
                 ["check", "--graph", p["small"], "--s", "0.5", "--s", "1.5"], check_suite),
        _cli_job(st, "kernel --oracle",
                 ["kernel", "--graph", p["small"], "--s", "0.5", "--oracle"],
                 lambda data, ctx: verify.check_oracle(data, st.small, 0.5)),
    ]
    jobs += [
        _cli_job(st, f"threshold s={s:g}", [
            "threshold", "--graph", p["small"], "--s", str(s), "--kappa", p["small_kappa"],
        ], check_threshold(s))
        for s in CLI_THRESHOLD_EXPONENTS
    ]
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("operator-n2000", prepare_operator, operator_jobs, pass_seconds=4.7),
    Workload("kw-solve-n400", prepare_kw, kw_jobs, pass_seconds=3.9),
    Workload("cli-n1000", prepare_cli, cli_jobs, pass_seconds=14.6),
)}
