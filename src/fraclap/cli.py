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
    InvalidExponent,
    NotSolved,
    NumericalError,
    ThresholdIsMinusInfinity,
)
from .fractional import build_operator, frac_apply, kernel_w_quadrature, split_exponent
from .graph import function_document, load_function, load_graph
from .spectral import decompose, heat_apply

log = logging.getLogger("fraclap")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE_UNSOLVABLE = 2
EXIT_SEARCH_FAILURE = 3
EXIT_NUMERICAL = 4


def format_json(obj, indent=0):
    """Serialize to JSON with floats at 17 significant digits (lossless).

    Non-finite floats raise NumericalError. One recursive writer appends the
    pieces of the text to a flat list, joined once at the end. A list whose
    items are all plain finite floats, such as a row from ``ndarray.tolist()``,
    is formatted in one ``%.17g`` pass: the same correctly rounded conversion
    as ``format(x, ".17g")``, so the text is the one per-float formatting
    gives.
    """
    pieces = []
    _write(pieces, obj, indent)
    return "".join(pieces)


def _write(out, obj, indent):
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for k, v in obj.items():
            out.append(f"{sep}{json.dumps(str(k))}: ")
            _write(out, v, indent + 1)
            sep = "," + inner
        out.append("\n" + "  " * indent + "}")
        return
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + "  " * (indent + 1)
        close = "\n" + "  " * indent + "]"
        # a row with a non-finite float takes the item path, which raises at
        # the first such value in row order
        if all(type(v) is float for v in obj) and all(map(math.isfinite, obj)):
            row = ("," + inner).join(["%.17g"] * len(obj))
            out.append(f"[{inner}{row}{close}" % tuple(obj))
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(out, v, indent + 1)
            sep = "," + inner
        out.append(close)
        return
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"refusing to serialize non-finite value {x}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, payload):
    # formatted before the file is opened, so a refused value leaves no file;
    # the newline is written on its own to avoid copying the whole text
    text = format_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph(args):
    return load_graph(_read(args.graph))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args):
    g = _graph(args)
    sd = decompose(g)
    _emit(args, {
        "lambdas": sd.lambdas.tolist(),
        "phis": sd.phis.T.tolist(),
    })
    return EXIT_OK


def _cmd_kernel(args):
    g = _graph(args)
    if not 0.0 < args.s < 1.0:
        raise InvalidExponent(f"kernel is defined for exponents in (0, 1); got {args.s}")
    sd = decompose(g)
    if args.oracle:
        kernel = kernel_w_quadrature(sd, args.s, tol=args.tol)
    else:
        kernel = build_operator(sd, args.s).kernel
    _emit(args, kernel.tolist())
    return EXIT_OK


def _warn_integer_order(s):
    # an invalid exponent is rejected before any warning
    sigma, _ = split_exponent(s)
    if sigma == 0.0:
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


def _flag_at_least(flag, value, low):
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _cmd_kw(args):
    _flag_at_least("--max-iter", args.max_iter, 1)
    _flag_at_least("--seed", args.seed, 0)
    g = _graph(args)
    _warn_integer_order(args.s)
    kappa = load_function(g, _read(args.kappa))
    problem = kw.KWProblem(graph=g, s=args.s, c=args.c, kappa=kappa)
    opts = kw.SolveOptions(tol=args.tol, max_iter_monotone=args.max_iter,
                           seed=args.seed, method=args.method)
    try:
        report = kw.solve(problem, opts)
    except CertificateUnsolvable as exc:
        _emit(args, {"solution": None, "residual_inf": None, "method": "screen",
                     "iterations": 0, "energy": None, "verdict": exc.verdict.to_dict()})
        return EXIT_CERTIFICATE_UNSOLVABLE
    _emit(args, report.to_dict(g))
    return EXIT_OK


def _cmd_threshold(args):
    _flag_at_least("--seed", args.seed, 0)
    g = _graph(args)
    kappa = load_function(g, _read(args.kappa))
    # --tol is the bracket width; the solves keep the default residual tolerance
    opts = kw.SolveOptions(seed=args.seed)
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
    _flag_at_least("--seed", args.seed, 0)
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
                   help="evaluate the defining time integral by quadrature, "
                        "one scalar integral per nonzero eigenvalue")
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
                   help="monotone sweep cap")
    p.add_argument("--seed", type=int, default=0)

    p = add("threshold", _cmd_threshold, "bracket the negative-c solvability threshold")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cap", type=int, default=64,
                   help="probe log length: walk end points and confirmations")
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
    except NotSolved as exc:
        log.error("search failure: %s", exc)
        return EXIT_SEARCH_FAILURE
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # stray floating-point and LAPACK failures share NumericalError's exit
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return EXIT_NUMERICAL
    except (FraclapError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
