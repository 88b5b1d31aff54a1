"""Spans around calls into biflag's layers, recorded from outside the package.

``install()`` wraps every public function of the layer modules and re-binds
the wrapper wherever the original is bound (``sweep``, ``calibrate`` and
``cli`` import solvers by name, and ``biflag/__init__`` re-exports them). It
also wraps ``RobotConfig.effective_drag`` and ``FlagellumSpec.__post_init__``.
Spans are kept in memory as tuples and turned into layer metrics at the end.
A layer's self time is its spans' duration minus the time of their children.

Run as a script, this module is the traced CLI child of cli-cold:
``python spans.py ARGS...`` installs the wrappers, runs ``biflag.cli.run``
and writes its spans as JSON to the path in ``$PERFBENCH_SPANS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

LAYERS = ("core", "closed_form", "oracle", "sweep", "calibrate", "config_io",
          "svgplot", "cli")
LAYER_OF = {"oracle_full_solve": "oracle"}  # lives in sweep.py
CF_SOLVES = {"full_solve", "solve_velocity", "solve_velocity_unreduced"}

# span tuple fields
NAME, LAYER, START, END, PARENT, JOB, CHILD, INFO, ERROR = range(9)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _info_hooks(bf):
    """Per-function extra facts stored on the span."""
    def cells(settings, grids):
        s = settings or bf.OracleSettings()
        return grids * (s.n_segments + 1) * (s.n_time + 1)

    def drag_key(args, kwargs):
        spec, fluid = args[0], args[1]
        return (spec.lam, spec.d_membrane, spec.d_hinge, spec.w, spec.h,
                spec.n, fluid.mu)

    return {
        "composite_coeffs": drag_key,
        "oracle_solve": lambda a, k: cells(_arg(a, k, 1, "settings"), 2),
        "average_thrust": lambda a, k: cells(_arg(a, k, 3, "settings"), 1),
        "oracle_power": lambda a, k: cells(_arg(a, k, 3, "settings"), 1),
        "sweep": lambda a, k: _arg(a, k, 1, "spec").count,
        "heatmap": lambda a, k: (_arg(a, k, 3, "counts")[0]
                                 * _arg(a, k, 3, "counts")[1]),
    }


class Tracer:
    """In-memory span recorder; ``job`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def wrap(self, layer: str, name: str, fn, info=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, parent, self.job, 0.0,
                    info(args, kwargs) if info else None, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
        return traced


def install(tracer: Tracer):
    """Wrap the layers' public functions and re-bind them everywhere."""
    import biflag as bf
    modules = {layer: importlib.import_module(f"biflag.{layer}") for layer in LAYERS}
    hooks = _info_hooks(bf)
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrapped[obj] = tracer.wrap(LAYER_OF.get(name, layer), name, obj,
                                           hooks.get(name))
    for name, module in list(sys.modules.items()):
        if name == "biflag" or name.startswith("biflag."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
    methods = ((bf.RobotConfig, "effective_drag", "closed_form"),
               (bf.FlagellumSpec, "__post_init__", "core"))
    for cls, attr, layer in methods:
        setattr(cls, attr, tracer.wrap(layer, f"{cls.__name__}.{attr}",
                                       vars(cls)[attr]))


class LayerStats:
    """Accumulates layer metrics over span lists, one list per process."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.geometries: set = set()
        self.cf_outer = 0
        self.cf_outer_s = 0.0
        self.drag_in_full_solve = 0
        self.full_solves = 0  # that returned
        self.oracle_outer = 0
        self.oracle_outer_s = 0.0
        self.grid_cells = 0
        self.bracket_errors = 0
        self.sweep_points = 0
        self.evals = {"fit_thrust_scale": 0, "optimize_design": 0}
        self.run_s: list[float] = []

    def add(self, spans: list) -> None:
        def has_ancestor(span, test):
            p = span[PARENT]
            while p >= 0:
                if test(spans[p]):
                    return spans[p]
                p = spans[p][PARENT]
            return None

        for span in spans:
            name, layer = span[NAME], span[LAYER]
            dur = span[END] - span[START]
            self.count[name] = self.count.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dur
            self.self_s[layer] += dur - span[CHILD]
            if name == "composite_coeffs":
                self.geometries.add(tuple(span[INFO]))
            elif name in ("oracle_solve", "average_thrust", "oracle_power"):
                self.grid_cells += span[INFO]
                if name == "oracle_solve" and span[ERROR] == "BracketError":
                    self.bracket_errors += 1
            elif name in ("sweep", "heatmap"):
                self.sweep_points += span[INFO]
            elif name == "RobotConfig.effective_drag":
                if has_ancestor(span, lambda s: s[NAME] == "full_solve"
                                and s[ERROR] is None):
                    self.drag_in_full_solve += 1
            elif name == "full_solve" and span[ERROR] is None:
                self.full_solves += 1
            elif name == "run" and layer == "cli":
                self.run_s.append(dur)
            if name in CF_SOLVES and not has_ancestor(
                    span, lambda s: s[NAME] in CF_SOLVES):
                self.cf_outer += 1
                self.cf_outer_s += dur
                job = has_ancestor(span, lambda s: s[NAME] in self.evals)
                if job:
                    self.evals[job[NAME]] += 1
            if layer == "oracle" and not has_ancestor(
                    span, lambda s: s[LAYER] == "oracle"):
                self.oracle_outer += 1
                self.oracle_outer_s += dur
                job = has_ancestor(span, lambda s: s[NAME] in self.evals)
                if job:
                    self.evals[job[NAME]] += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, b = self.count, self.busy

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        drag_calls = c.get("composite_coeffs", 0)
        return {
            "core.drag_calls": (drag_calls, "count"),
            "core.drag_busy_s": (b.get("composite_coeffs", 0.0), "s"),
            "core.drag_calls_per_geometry":
                (per(drag_calls, len(self.geometries)), "count"),
            "core.spec_inits": (c.get("FlagellumSpec.__post_init__", 0), "count"),
            "core.spec_init_busy_s": (b.get("FlagellumSpec.__post_init__", 0.0), "s"),
            "closed_form.solve_calls": (self.cf_outer, "count"),
            "closed_form.self_s": (self.self_s["closed_form"], "s"),
            "closed_form.us_per_call": (per(self.cf_outer_s, self.cf_outer, 1e6), "us"),
            "closed_form.effective_drag_per_solve":
                (per(self.drag_in_full_solve, self.full_solves), "count"),
            "oracle.full_solve_calls": (c.get("oracle_full_solve", 0), "count"),
            "oracle.self_s": (self.self_s["oracle"], "s"),
            "oracle.ms_per_point": (per(self.oracle_outer_s, self.oracle_outer, 1e3), "ms"),
            "oracle.grid_cells": (self.grid_cells, "count"),
            "oracle.bracket_errors": (self.bracket_errors, "count"),
            "sweep.points": (self.sweep_points, "count"),
            "sweep.self_s": (self.self_s["sweep"], "s"),
            "sweep.overhead_us_per_point":
                (per(self.self_s["sweep"], self.sweep_points, 1e6), "us"),
            "calibrate.fit_evals":
                (per(self.evals["fit_thrust_scale"], c.get("fit_thrust_scale", 0)), "count"),
            "calibrate.opt_evals":
                (per(self.evals["optimize_design"], c.get("optimize_design", 0)), "count"),
            "calibrate.self_s": (self.self_s["calibrate"], "s"),
            "config_io.load_s": (b.get("load_config", 0.0), "s"),
            "svgplot.emit_s": (b.get("emit_plot", 0.0), "s"),
            "cli.run_s": (statistics.median(self.run_s) if self.run_s else 0.0, "s"),
        }


def write_spans(spans: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _child(argv: list[str]) -> int:
    import biflag.cli
    tracer = Tracer()
    tracer.job = os.environ.get("PERFBENCH_JOB")
    install(tracer)
    try:
        return biflag.cli.run(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
