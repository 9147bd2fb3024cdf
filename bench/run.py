"""fraclap benchmark: one command, four seeded workloads, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; fraclap is imported from its ``src/``.
One client in one process runs the workload's fixed job list (a pass) a fixed
number of times, each job after the previous one returns, after an untimed
warm-up. The pass count is ``--seconds`` over the workload's nominal pass
time, so a run measures about ``--seconds`` seconds and the same arguments
always attempt the same jobs. Only the calls into fraclap are timed; every
job's output is checked afterwards.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run that alternates untraced and traced passes (the difference
is ``trace.overhead_s``). The last line of stdout is the result object; the
line before it records the environment and any failed jobs. Metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
# BLAS threads per workload, capped at nproc; one where not listed. Only the
# n=2000 operator work gains from a second thread (5.6 s against 9.2 s a pass
# on a 2-vCPU VM); the n=400 solves ran slower with two (7.7 s against 4.2 s).
BLAS_THREADS = {"operator-n2000": 2}


def blas_threads(workload):
    return min(NPROC, BLAS_THREADS.get(workload, 1))


def _configure_environment(threads):
    # must run before numpy is first imported; the import-timing child inherits it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fraclap", "__init__.py")):
        sys.stderr.write(f"error: no fraclap sources under {SRC}; run from a repository checkout\n")
        return 2
    threads = blas_threads(args.workload)
    _configure_environment(threads)
    import harness  # imports numpy and fraclap, so after the BLAS settings

    return harness.run(args, ROOT, BENCH_DIR, threads, NPROC)


if __name__ == "__main__":
    sys.exit(main())
