"""Layer spans recorded from outside the program, by wrapping its functions.

``Tracer.install()`` replaces every public function of the eight layer
modules with a wrapper, wherever the function is bound: in its own module,
in every other ``dioph`` module that imported it by name (for example
``experiments.best_approx`` and ``cli.dirichlet_check``), and in the
package namespace.

A layer span is a call into a public function of a layer from outside that
layer.  A layer's busy time is the time covered by its outermost spans, and
its self time is the span time not covered by child spans of other layers.
Per-function figures count every call to the function, from inside its
layer too, so that ``lattice_dyn.successive_minima`` called by
``lattice_dyn.flow_profile`` is seen.

Work counts are computed from arguments and results, not read from the
program: they appear in ``COMPUTED`` and are marked so in the trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

LAYERS = ("ec_core", "heights", "analytic", "dioph_matrix", "lattice_dyn",
          "haw_game", "experiments", "cli")

TRACKED = (
    "ec_core.scalar_mul",
    "heights.canonical_height_limit", "heights.canonical_height_local",
    "analytic.real_period", "analytic.elliptic_log", "analytic.exp_E",
    "dioph_matrix.best_approx", "dioph_matrix.exponent_estimate",
    "lattice_dyn.successive_minima", "lattice_dyn.shortest_vector",
    "haw_game.derive_strategy", "haw_game.run_game",
    "experiments.weak_dirichlet_experiment", "experiments.minkowski_solutions",
    "experiments.conjecture_probe",
    "cli.emit_report",
)

CLI_COMMANDS = ("curve-verify", "curve-height", "curve-log", "dirichlet", "exponent",
                "flow", "haw", "minkowski", "weakdirichlet", "probe")

COMPUTED = (
    "dioph_matrix.box_points", "experiments.orbit_points", "heights.doublings",
    "haw_game.cert_points", "haw_game.rounds", "cli.bytes_out",
)


# function -> (counter, work computed from its bound arguments)
_ARG_COUNTS = {
    "dioph_matrix.best_approx":
        ("dioph_matrix.box_points", lambda a: (2 * a["Q"] + 1) ** a["A"].n),
    "dioph_matrix.exponent_estimate":
        ("dioph_matrix.box_points",
         lambda a: a["Q_max"] if a["A"].n == 1 else (2 * a["Q_max"] + 1) ** a["A"].n),
    "experiments.weak_dirichlet_experiment":
        ("experiments.orbit_points", lambda a: a["config"].q_max),
    "experiments.minkowski_solutions": ("experiments.orbit_points", lambda a: a["q_max"]),
    "heights.canonical_height_limit": ("heights.doublings", lambda a: a["n_max"]),
    "haw_game.run_game": ("haw_game.rounds", lambda a: a["rounds"]),
}


class Tracer:
    """Span bookkeeping for one single-threaded traced pass."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # [layer, time covered by child spans]
        self._layer_depth: Dict[str, int] = defaultdict(int)
        self._fn_depth: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.command_busy: Dict[str, float] = defaultdict(float)

    def install(self) -> None:
        """Wrap every public layer function at every binding."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dioph.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "dioph" and not modname.startswith("dioph."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        key = f"{layer}.{name}"
        tracked = key in TRACKED
        arg_count = _ARG_COUNTS.get(key)
        sig = inspect.signature(fn) if arg_count else None
        stack, layer_depth, fn_depth = self._stack, self._layer_depth, self._fn_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cross = not stack or stack[-1][0] != layer
            if not cross and not tracked:
                return fn(*args, **kwargs)
            if arg_count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[arg_count[0]] += arg_count[1](bound.arguments)
            if cross:
                frame = [layer, 0.0]
                stack.append(frame)
                layer_depth[layer] += 1
            if tracked:
                fn_depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                if tracked:
                    fn_depth[key] -= 1
                    self.calls[key] += 1
                    if fn_depth[key] == 0:
                        self.busy[key] += dur
                if cross:
                    stack.pop()
                    layer_depth[layer] -= 1
                    self.calls[layer] += 1
                    self.self_s[layer] += dur - frame[1]
                    if layer_depth[layer] == 0:
                        self.busy[layer] += dur
                    if stack:
                        stack[-1][1] += dur
            self._count_result(key, result)
            return result

        return wrapper

    def _count_result(self, key: str, result) -> None:
        if key == "haw_game.run_game":
            self.counts["haw_game.cert_points"] += sum(c["checked"] for c in result.triggered)
        elif key == "cli.emit_report":
            self.counts["cli.bytes_out"] += sum(os.path.getsize(p) for p in result)

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer metric but the tracing overhead, by name, with its unit."""
        out: Dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.calls", self.calls[layer], "count")
            put(f"{layer}.busy_s", self.busy[layer], "s")
            put(f"{layer}.self_s", self.self_s[layer], "s")
        for key in TRACKED:
            put(f"{key}.calls", self.calls[key], "count")
            put(f"{key}.busy_s", self.busy[key], "s")
        for cmd in CLI_COMMANDS:
            put(f"cli.{cmd}.busy_s", self.command_busy[cmd], "s")
        for key in COMPUTED:
            put(key, self.counts[key], "B" if key == "cli.bytes_out" else "count")
        box_busy = self.busy["dioph_matrix"]
        # the functions that count orbit points, not conjecture_probe's box scans
        orbit_busy = (self.busy["experiments.weak_dirichlet_experiment"]
                      + self.busy["experiments.minkowski_solutions"])
        put("dioph_matrix.box_points_per_s",
            self.counts["dioph_matrix.box_points"] / box_busy if box_busy else 0.0, "1/s")
        put("experiments.orbit_points_per_s",
            self.counts["experiments.orbit_points"] / orbit_busy if orbit_busy else 0.0, "1/s")
        return out

