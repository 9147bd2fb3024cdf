"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps fraclap's public functions at the layer boundaries --
in the module that defines each one and in every fraclap module that imported
it by name (``cli.decompose``, ``kazdan_warner.build_operator``, ...) -- and the
numpy/scipy LAPACK entry points below them. While ``active`` is set, each call
becomes a span (id, parent, name, start, end, attrs). Spans stay in memory and
are written out when the run ends; ``summarize`` turns them into the per-layer
metrics, self time included.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

import fraclap
from fraclap import checks, cli, fractional, graph, kazdan_warner, spectral

PACKAGE_MODULES = (fraclap, graph, spectral, fractional, kazdan_warner, checks, cli)
LAYERS = ("graph", "spectral", "fractional", "kazdan_warner", "checks", "cli", "lapack")
ROUTES = {
    "variational-positive-c": "positive_c",
    "variational-zero-c": "zero_c",
    "monotone-iteration": "monotone",
    "newton-continuation": "newton",
}
CLI_COMMANDS = ("spectrum", "kernel", "apply", "heat", "kw", "threshold", "poisson", "check")
REGIMES = ("kernel", "odd", "even", "integer")
LAPACK = {  # metric stem -> (module, attribute)
    "eigh": (np.linalg, "eigh"),
    "lu_solve": (np.linalg, "solve"),
    "lstsq": (np.linalg, "lstsq"),
    "cholesky": (scipy.linalg, "cho_factor"),
    "cho_solve": (scipy.linalg, "cho_solve"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict

    @property
    def seconds(self):
        return self.end - self.start


def _regime(args, kwargs):
    s = float(args[1] if len(args) > 1 else kwargs["s"])
    if not math.isfinite(s) or s <= 0:
        return "fractional.build_operator.invalid"
    m = math.floor(s)
    regime = "integer" if s == m else "kernel" if m == 0 else "odd" if m % 2 else "even"
    return f"fractional.build_operator.{regime}"


def _command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or sys.argv[1:]
    return f"cli.main.{argv[0] if argv else 'none'}"


def _note_solve(attrs, result):
    attrs["route"] = ROUTES.get(result.method, result.method)
    attrs["iterations"] = int(result.iterations)


def _note_threshold(attrs, result):
    attrs["probes"] = len(result.probes)
    attrs["solved"] = sum(1 for _, ok in result.probes if ok)


def _note_suite(attrs, result):
    attrs["entries_failed"] = len(result.failures)


def _note_bytes(attrs, result):
    attrs["bytes"] = len(result.encode("utf-8")) + 1  # _emit appends a newline


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, handle, name, attrs):
        end = time.perf_counter()
        sid, parent, start = handle
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, attrs)

    def record(self, name, fn, *args, **attrs):
        """Call fn(*args) inside a root span (one per benchmark job)."""
        handle = self._open()
        try:
            return fn(*args)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            self._close(handle, name, attrs)

    def _wrap(self, fn, name, name_of=None, note=None, recursive_in=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name_of(args, kwargs) if name_of else name
            attrs = {}
            handle = tracer._open()
            if recursive_in is not None:
                # recursion goes through the module global: let it reach fn
                # directly so that only the outermost call is a span
                setattr(recursive_in, fn.__name__, fn)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(attrs, result)
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                if recursive_in is not None:
                    setattr(recursive_in, fn.__name__, traced)
                tracer._close(handle, span_name, attrs)

        return traced

    def _patch(self, home, attr, wrapper_args):
        original = getattr(home, attr)
        wrapper = self._wrap(original, *wrapper_args)
        for mod in {id(m): m for m in (home, *PACKAGE_MODULES)}.values():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def install(self):
        targets = [
            (graph, "load_graph", ("graph.load_graph",)),
            (spectral, "decompose", ("spectral.decompose",)),
            (spectral, "heat_apply", ("spectral.heat_apply",)),
            (fractional, "build_operator", (None, _regime)),
            (fractional, "frac_apply", ("fractional.frac_apply",)),
            (fractional, "kernel_w_quadrature", ("fractional.kernel_w_quadrature",)),
            (kazdan_warner, "solve", ("kazdan_warner.solve", None, _note_solve)),
            (kazdan_warner, "poisson_meanzero_solve", ("kazdan_warner.poisson_meanzero_solve",)),
            (kazdan_warner, "estimate_threshold",
             ("kazdan_warner.estimate_threshold", None, _note_threshold)),
            (checks, "run_suite", ("checks.run_suite", None, _note_suite)),
            (cli, "main", (None, _command)),
            (cli, "format_json", ("cli.format_json", None, _note_bytes, cli)),
        ]
        targets += [(mod, attr, (f"lapack.{stem}",)) for stem, (mod, attr) in LAPACK.items()]
        for home, attr, wrapper_args in targets:
            self._patch(home, attr, wrapper_args)

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def summarize(spans, passes):
    """Per-layer metrics per traced pass. Times and counts are totals over
    the traced passes divided by ``passes``; route latencies and iteration
    counts are medians over all solves on that route."""
    seconds, calls = defaultdict(float), Counter()
    children = defaultdict(float)
    routes = defaultdict(list)
    attr_sum = Counter()
    for sp in spans:
        seconds[sp.name] += sp.seconds
        calls[sp.name] += 1
        if sp.parent is not None:
            children[sp.parent] += sp.seconds
        if "route" in sp.attrs:
            routes[sp.attrs["route"]].append((sp.seconds, sp.attrs["iterations"]))
        for key in ("probes", "solved", "entries_failed", "bytes"):
            attr_sum[key] += sp.attrs.get(key, 0)

    out = {}
    timed = [
        "graph.load_graph", "spectral.decompose", "spectral.heat_apply",
        *(f"fractional.build_operator.{r}" for r in REGIMES),
        "fractional.frac_apply", "fractional.kernel_w_quadrature",
        "kazdan_warner.poisson_meanzero_solve", "kazdan_warner.estimate_threshold",
        "checks.run_suite", *(f"cli.main.{c}" for c in CLI_COMMANDS), "cli.format_json",
        *(f"lapack.{stem}" for stem in LAPACK),
    ]
    for name in timed:
        out[f"{name}_s"] = seconds[name] / passes
    for name in ("spectral.decompose", *(f"lapack.{stem}" for stem in LAPACK)):
        out[f"{name}_calls"] = calls[name] / passes
    for route in ROUTES.values():
        samples = routes.get(route, [])
        out[f"kazdan_warner.solve.{route}_p50_s"] = (
            statistics.median(t for t, _ in samples) if samples else 0.0)
        out[f"kazdan_warner.solve.{route}_iterations"] = (
            statistics.median(i for _, i in samples) if samples else 0.0)
    out["kazdan_warner.threshold.probes"] = attr_sum["probes"] / passes
    out["kazdan_warner.threshold.probe_success_ratio"] = (
        attr_sum["solved"] / attr_sum["probes"] if attr_sum["probes"] else 0.0)
    out["checks.entries_failed"] = attr_sum["entries_failed"] / passes
    out["cli.output_bytes"] = attr_sum["bytes"] / passes

    self_time = defaultdict(float)
    for sp in spans:
        self_time[sp.name.split(".")[0]] += sp.seconds - children[sp.id]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer] / passes
    return out
