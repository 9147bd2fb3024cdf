"""Command-line surface: spectrum, kernel, apply, heat, kw, threshold,
poisson, check.

All numeric output is serialized with 17 significant digits so every emitted
double round-trips losslessly. Exit codes: 0 ok, 1 usage or parse error,
2 certificate-unsolvable, 3 search failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import kazdan_warner as kw
from .checks import run_suite
from .errors import (
    CertificateUnsolvable,
    FraclapError,
    NotSolved,
    NumericalError,
    ThresholdIsMinusInfinity,
)
from .fractional import build_operator, frac_apply, kernel_w_quadrature
from .graph import function_document, load_function, load_graph
from .spectral import decompose, heat_apply

log = logging.getLogger("fraclap")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE_UNSOLVABLE = 2
EXIT_SEARCH_FAILURE = 3
EXIT_NUMERICAL = 4


def format_json(obj, indent=0):
    """Serialize to JSON with floats at 17 significant digits (lossless)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {format_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{format_json(v, indent + 1)}" for v in obj]
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


def _emit(args, payload):
    text = format_json(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph(args):
    return load_graph(_read(args.graph))


def _array2d(matrix):
    return [[float(v) for v in row] for row in matrix]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args):
    g = _graph(args)
    sd = decompose(g)
    _emit(args, {
        "lambdas": [float(v) for v in sd.lambdas],
        "phis": [[float(v) for v in sd.phis[:, i]] for i in range(g.n)],
    })
    return EXIT_OK


def _cmd_kernel(args):
    g = _graph(args)
    if not 0.0 < args.s < 1.0:
        log.error("kernel is defined for exponents in (0, 1); got %s", args.s)
        return EXIT_USAGE
    sd = decompose(g)
    if args.oracle:
        kernel = kernel_w_quadrature(sd, args.s, tol=args.tol)
    else:
        kernel = build_operator(sd, args.s).kernel
    _emit(args, _array2d(kernel))
    return EXIT_OK


def _warn_integer_order(s):
    if float(s) == int(s):
        sys.stderr.write(
            f"warning: s={s:g} is integer-order (outside the fractional sigma "
            "in (0,1) regime); using the repeated-application power\n"
        )


def _cmd_apply(args):
    g = _graph(args)
    _warn_integer_order(args.s)
    op = build_operator(decompose(g), args.s)
    u = load_function(g, _read(args.input))
    _emit(args, function_document(g, frac_apply(op, u)))
    return EXIT_OK


def _cmd_heat(args):
    g = _graph(args)
    sd = decompose(g)
    u = load_function(g, _read(args.input))
    _emit(args, function_document(g, heat_apply(sd, args.t, u)))
    return EXIT_OK


def _cmd_poisson(args):
    g = _graph(args)
    _warn_integer_order(args.s)
    op = build_operator(decompose(g), args.s)
    f = load_function(g, _read(args.input))
    _emit(args, function_document(g, kw.poisson_meanzero_solve(op, f)))
    return EXIT_OK


def _solve_options(args, residual_tol=True):
    """Map CLI flags onto SolveOptions.

    ``threshold --tol`` is the bracket width, not the residual tolerance, so
    that command passes residual_tol=False.
    """
    opts = kw.SolveOptions()
    if residual_tol and getattr(args, "tol", None) is not None:
        opts.tol = args.tol
    if getattr(args, "max_iter", None) is not None:
        opts.max_iter_monotone = args.max_iter
        opts.max_iter_newton = max(200, args.max_iter // 50)
    if getattr(args, "seed", None) is not None:
        opts.seed = args.seed
    if getattr(args, "method", None):
        opts.method = args.method
    return opts


def _cmd_kw(args):
    g = _graph(args)
    _warn_integer_order(args.s)
    kappa = load_function(g, _read(args.kappa))
    problem = kw.KWProblem(graph=g, s=args.s, c=args.c, kappa=kappa)
    opts = _solve_options(args)
    try:
        report = kw.solve(problem, opts)
    except CertificateUnsolvable as exc:
        report = kw.SolveReport(
            solution=None, residual_inf=float("inf"), method="screen",
            iterations=0, energy=None, verdict=exc.verdict,
        )
        payload = report.to_dict(g)
        payload["residual_inf"] = None
        _emit(args, payload)
        return EXIT_CERTIFICATE_UNSOLVABLE
    _emit(args, report.to_dict(g))
    return EXIT_OK


def _cmd_threshold(args):
    g = _graph(args)
    kappa = load_function(g, _read(args.kappa))
    opts = _solve_options(args, residual_tol=False)
    try:
        est = kw.estimate_threshold(g, args.s, kappa, tol=args.tol, cap=args.cap, opts=opts)
    except ThresholdIsMinusInfinity as exc:
        _emit(args, {"status": "threshold-is-minus-infinity", "reason": str(exc)})
        return EXIT_OK
    payload = {"status": "bracketed"}
    payload.update(est.to_dict(g))
    _emit(args, payload)
    return EXIT_OK


def _cmd_check(args):
    g = _graph(args)
    s_list = args.s if args.s else [0.5]
    report = run_suite(g, s_list=s_list, seed=args.seed)
    _emit(args, report.to_dict())
    if not report.passed:
        for entry in report.failures:
            log.error("check failed: %s measured=%g tol=%g", entry.name,
                      entry.measured, entry.tolerance)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Fractional Laplacians on finite weighted graphs and the "
                    "fractional Kazdan-Warner equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    add("spectrum", _cmd_spectrum, "eigenvalues and eigenfunctions")

    p = add("kernel", _cmd_kernel, "dense nonlocal kernel for s in (0, 1)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="evaluate the defining time integral by quadrature")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("apply", _cmd_apply, "apply the fractional Laplacian to a function")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--input", required=True, help="function JSON file")

    p = add("heat", _cmd_heat, "evolve a function under the heat semigroup")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--input", required=True)

    p = add("kw", _cmd_kw, "solve (-Delta)^s u = kappa e^u - c")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kappa", required=True, help="kappa function JSON file")
    p.add_argument("--method", choices=["auto", "variational", "monotone", "newton"],
                   default="auto")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="monotone sweep cap (Newton caps scale from it)")
    p.add_argument("--seed", type=int, default=0)

    p = add("threshold", _cmd_threshold, "bracket the negative-c solvability threshold")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cap", type=int, default=64, help="probe budget")
    p.add_argument("--seed", type=int, default=0)

    p = add("poisson", _cmd_poisson, "mean-zero solve of (-Delta)^s u = f - mean(f)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--input", required=True)

    p = add("check", _cmd_check, "run the invariant suite on a graph")
    p.add_argument("--s", type=float, action="append",
                   help="exponent to check (repeatable; default 0.5)")
    p.add_argument("--seed", type=int, default=7)

    return parser


def _configure_logging():
    level_name = os.environ.get("FRACLAP_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except CertificateUnsolvable as exc:
        log.error("certificate-unsolvable: %s", exc)
        return EXIT_CERTIFICATE_UNSOLVABLE
    except NotSolved as exc:
        log.error("search failure: %s", exc)
        return EXIT_SEARCH_FAILURE
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # stray floating-point and LAPACK failures share NumericalError's exit
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return EXIT_NUMERICAL
    except (FraclapError, OSError, ValueError) as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
