"""Command-line surface: spectrum, kernel, apply, heat, kw, threshold,
poisson, check.

All numeric output is serialized with 17 significant digits so every emitted
double round-trips losslessly. Exit codes: 0 ok, 1 usage or parse error,
2 certificate-unsolvable, 3 search failure, 4 numerical failure.
stdout carries only JSON. Exits 1, 3 and 4 write one stderr line each:
``error: <message>``, ``error: search failure: <message>`` and ``error:
numerical failure: <Type>: <message>``; a failed ``check`` writes ``error:
check failed: <name> measured=<m> tol=<t>`` per failed entry. Exits 0 and 2
write only the integer-order ``warning:`` line, if any.
"""

from __future__ import annotations

import argparse
import json
import math
import re
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
from .fractional import (
    build_operator,
    frac_apply,
    kernel_w_quadrature,
    spectral_kernel,
    split_exponent,
)
from .graph import function_document, load_function, load_graph
from .spectral import decompose, heat_apply

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE_UNSOLVABLE = 2
EXIT_SEARCH_FAILURE = 3
EXIT_NUMERICAL = 4

# argparse before 3.13 takes "--c -1e-3" for an option; no fraclap option looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def format_json(obj, indent=0):
    """Serialize to JSON with floats at 17 significant digits (lossless).

    Non-finite floats raise NumericalError, naming the first one in
    document order, before any text is formed. One recursive writer hands
    the pieces of the text to a sink, here a flat list joined once at the
    end. A float ndarray is written a row at a time, each row formatted in
    one ``%.17g`` pass over ``row.tolist()``. That is the same correctly
    rounded conversion as ``format(x, ".17g")``, so an ndarray's text is
    the one per-float formatting of its ``tolist()`` gives.
    """
    _refuse_nonfinite(obj)
    pieces = []
    _write(pieces.append, obj, indent)
    return "".join(pieces)


def _refuse_nonfinite(obj):
    """Raise NumericalError at the first non-finite float of obj, in document order."""
    bad = None
    if isinstance(obj, dict):
        for v in obj.values():
            _refuse_nonfinite(v)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            bad = obj[~np.isfinite(obj)][0]
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _refuse_nonfinite(v)
    elif isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        bad = obj
    if bad is not None:
        raise NumericalError(f"refusing to serialize non-finite value {float(bad)}")


def _write(out, obj, indent):
    # obj has passed _refuse_nonfinite; out is the sink each piece goes to
    if isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for k, v in obj.items():
            out(f"{sep}{json.dumps(str(k))}: ")
            _write(out, v, indent + 1)
            sep = "," + inner
        out("\n" + "  " * indent + "}")
        return
    array = isinstance(obj, np.ndarray) and obj.ndim > 0 and obj.dtype.kind == "f"
    if array or isinstance(obj, (list, tuple)):
        if not len(obj):
            out("[]")
            return
        inner = "\n" + "  " * (indent + 1)
        close = "\n" + "  " * indent + "]"
        row = obj.tolist() if array and obj.ndim == 1 else None
        if row is not None:
            fmt = ("," + inner).join(["%.17g"] * len(row))
            out(f"[{inner}{fmt}{close}" % tuple(row))
            return
        sep = "[" + inner
        for v in obj:
            out(sep)
            _write(out, v, indent + 1)
            sep = "," + inner
        out(close)
        return
    if isinstance(obj, bool):
        out("true" if obj else "false")
    elif obj is None:
        out("null")
    elif isinstance(obj, (int, np.integer)):
        out(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, payload):
    # checked before the file is opened, so a refused value leaves no file
    # and no stdout; then streamed piece by piece, arrays a row at a time
    _refuse_nonfinite(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh.write, payload, 0)
            fh.write("\n")
    else:
        _write(sys.stdout.write, payload, 0)
        sys.stdout.write("\n")


def _error(message):
    # the one stderr writer for exits 1, 3 and 4 once the arguments parsed
    sys.stderr.write(f"error: {message}\n")


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
        "lambdas": sd.lambdas,
        "phis": sd.phis.T,
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
        kernel = spectral_kernel(sd, args.s)
    _emit(args, kernel)
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


def _cmd_kw(args):
    g = _graph(args)
    _warn_integer_order(args.s)
    kappa = load_function(g, _read(args.kappa))
    problem = kw.KWProblem(graph=g, s=args.s, c=args.c, kappa=kappa)
    opts = kw.SolveOptions(tol=args.tol, method=args.method)
    try:
        report = kw.solve(problem, opts)
    except CertificateUnsolvable as exc:
        _emit(args, kw.SolveReport(None, None, "screen", 0, None, exc.verdict).to_dict(g))
        return EXIT_CERTIFICATE_UNSOLVABLE
    _emit(args, report.to_dict(g))
    return EXIT_OK


def _cmd_threshold(args):
    g = _graph(args)
    kappa = load_function(g, _read(args.kappa))
    # --tol is the bracket width; the solves keep the default residual tolerance
    try:
        est = kw.estimate_threshold(g, args.s, kappa, tol=args.tol, cap=args.cap)
    except ThresholdIsMinusInfinity as exc:
        _emit(args, {"status": "threshold-is-minus-infinity", "reason": str(exc)})
        return EXIT_OK
    payload = {"status": "bracketed"}
    payload.update(est.to_dict(g))
    _emit(args, payload)
    return EXIT_OK


def _cmd_check(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    g = _graph(args)
    s_list = args.s if args.s else [0.5]
    report = run_suite(g, s_list=s_list, seed=args.seed)
    _emit(args, report.to_dict())
    for entry in report.failures:
        _error(f"check failed: {entry.name} measured={entry.measured:g} "
               f"tol={entry.tolerance:g}")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


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
        p._negative_number_matcher = _NEGATIVE_NUMBER
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

    p = add("threshold", _cmd_threshold, "bracket the negative-c solvability threshold")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cap", type=int, default=64,
                   help="probe log length: the start, then one entry per Newton run")

    p = add("poisson", _cmd_poisson, "mean-zero solve of (-Delta)^s u = f - mean(f)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--input", required=True)

    p = add("check", _cmd_check, "run the invariant suite on a graph")
    p.add_argument("--s", type=float, action="append",
                   help="exponent to check (repeatable; default 0.5)")
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except NotSolved as exc:
        _error(f"search failure: {exc}")
        return EXIT_SEARCH_FAILURE
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # stray floating-point and LAPACK failures share NumericalError's exit
        _error(f"numerical failure: {type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL
    except (FraclapError, OSError, ValueError) as exc:
        _error(exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
