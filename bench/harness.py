"""Runs one workload: repeated set-up, warm-up, timed passes, per-job checks,
metrics. Imported by run.py after the BLAS thread settings are in place."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

import verify
from tracing import Tracer, summarize
from workloads import WORKLOADS, ExitStatus

SETUP_REPEATS = 3
WARMUP_SECONDS = 2.0


@dataclass
class JobResult:
    name: str
    seconds: float
    error: str | None = None  # exception type, "exit N" or "CheckFailed: why"
    wrong: bool = False  # output produced but failed its correctness check


def run_job(job, ctx, tracer=None):
    """Time job.call, then check its output. A job that raises or exits
    nonzero is a failed job, never a crash of the benchmark."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = job.call(ctx)
        else:
            tracer.active = True
            try:
                result = tracer.record("job", job.call, ctx, job=job.name)
            finally:
                tracer.active = False
    except verify.CheckFailed as exc:
        return JobResult(job.name, time.perf_counter() - start, f"CheckFailed: {exc}", True)
    except ExitStatus as exc:
        return JobResult(job.name, time.perf_counter() - start, str(exc))
    except Exception as exc:  # noqa: BLE001 - any exception is a failed job
        return JobResult(job.name, time.perf_counter() - start, type(exc).__name__)
    seconds = time.perf_counter() - start
    ctx[job.name] = result
    try:
        job.check(result, ctx)
    except Exception as exc:  # noqa: BLE001 - malformed output is a wrong answer too
        return JobResult(job.name, seconds, f"CheckFailed: {type(exc).__name__}: {exc}", True)
    return JobResult(job.name, seconds)


def run_pass(jobs, tracer=None):
    ctx = {}
    return [run_job(job, ctx, tracer) for job in jobs]


def pass_count(seconds, pass_seconds, trace):
    """Passes that fill about ``seconds`` at the nominal pass time. The count
    depends only on the arguments, so a seed always attempts the same jobs; a
    traced run alternates untraced and traced passes and needs an even count."""
    count = max(1, round(seconds / pass_seconds))
    return count + count % 2 if trace else count


def warm_up(jobs):
    """Run the first jobs untimed and unchecked for about WARMUP_SECONDS."""
    ctx, start = {}, time.perf_counter()
    for job in jobs:
        try:
            ctx[job.name] = job.call(ctx)
        except Exception:  # noqa: BLE001 - warm-up outcomes are not scored
            pass
        if time.perf_counter() - start >= WARMUP_SECONDS:
            break


def time_import():
    """Wall time of ``import fraclap`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fraclap"], check=True)
    return time.perf_counter() - start


def environment(blas_threads, nproc):
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads_set": blas_threads,
        "blas_threads_seen": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, one client, one process",
    }


def _openblas_threads():
    """Thread count reported by each loaded OpenBLAS, if it can be asked."""
    seen = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return seen
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                seen[os.path.basename(path)] = int(getter())
                break
    return seen


def _median(values):
    return float(statistics.median(values))


def job_list_seconds(passes):
    """Time to run the job list once: the sum over jobs of each job's median
    time across the passes, so a slow stretch of the host that hits one pass
    of a job is dropped rather than added."""
    return sum(_median([r.seconds for r in column]) for column in zip(*passes))


def run(args, root, bench_dir, blas_threads, nproc):
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    work_root = os.path.join(bench_dir, ".work")
    workdir = os.path.join(work_root, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        # set-up, repeated; each repeat regenerates identical inputs
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            seconds = time_import()
            start = time.perf_counter()
            state = workload.prepare(np.random.default_rng(args.seed), workdir)
            setups.append(seconds + time.perf_counter() - start)
        jobs = workload.jobs(state)
        warm_up(jobs)

        tracer = Tracer()
        passes = []  # (traced, [JobResult])
        for k in range(pass_count(args.seconds, workload.pass_seconds, args.trace)):
            traced = bool(args.trace) and k % 2 == 1
            if traced:
                tracer.install()
            try:
                passes.append((traced, run_pass(jobs, tracer if traced else None)))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, rs in passes for r in rs]
    failed = [r for r in results if r.error]
    walls = {t: [sum(r.seconds for r in rs) for tr, rs in passes if tr == t] for t in (False, True)}
    values = {
        "wall_s": job_list_seconds([rs for tr, rs in passes if not tr]),
        "setup_s": _median(setups),
        "success_frac": 1.0 - len(failed) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        values.update(summarize(tracer.spans, len(walls[True])))
        values["trace.overhead_s"] = (job_list_seconds([rs for tr, rs in passes if tr])
                                      - values["wall_s"])
        os.makedirs(work_root, exist_ok=True)
        tracer.dump(os.path.join(work_root, f"trace-{workload.name}-seed{args.seed}.jsonl"))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(blas_threads, nproc),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "pass_wall_s": walls[False],
        "failed_frac": len(failed) / len(results),
        "failures": [{"job": job, "error": err, "count": n}
                     for (job, err), n in sorted(Counter((r.name, r.error) for r in failed).items())],
    }))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0
