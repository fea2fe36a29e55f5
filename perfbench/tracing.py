"""Spans around calls into each fleetcontest module's public functions.

install() wraps every public function of the traced modules and puts
the wrapper in place of the original under every name that refers to
it in any loaded fleetcontest module. The package imports functions by
name (boundary and experiments each hold their own reference to
interior_equilibrium), so patching only the defining module would miss
most calls. uninstall() puts the originals back.

Spans are kept in memory as parallel arrays and written once, at the
end. Per-layer totals are also accumulated as spans close: a span's
self time is its duration minus the durations of its direct children.
"""

import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

#: Trace layers, each with the module whose public functions it wraps.
LAYERS = {
    "experiments": "fleetcontest.experiments",
    "boundary": "fleetcontest.boundary",
    "interior": "fleetcontest.interior",
    "verify": "fleetcontest.verify",
    "kernels": "fleetcontest._kernels",
    "game": "fleetcontest.game",
    "config": "fleetcontest.config",
}

SOLVERS = ("boundary.solve_two_region", "experiments.solve_spec")

#: Spans kept for the trace file; totals keep counting beyond it.
MAX_SPANS = 300_000


def _public_functions(module):
    """Public functions of a module: its __all__ (as in _kernels, which
    re-exports the active backend), else the public names defined there."""
    if hasattr(module, "__all__"):
        names = module.__all__
    else:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.names = []            # "layer.function" per function id
        self.layer_of = []         # layer name per function id
        self._originals = {}       # id(original) -> (original, wrapper)
        self._patched = []         # (module, name, original)
        self._stack = []           # [child_time, span index, inside a solve]
        self.op = -1               # index of the running operation in its round
        self.spans = {
            "fn": array("H"), "parent": array("i"), "op": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self.dropped = 0
        self.self_time = {}        # layer -> seconds
        self.total_time = {}       # "layer.function" -> seconds
        self.calls = {}            # "layer.function" -> count
        self.solves = 0
        self.root_iterations = 0
        self.interior_accepted = 0
        self.candidates = 0
        self.certified = 0
        self.ibr_rounds = 0
        self.cells = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        import fleetcontest  # noqa: F401  (loads every module to patch)

        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for name, func in _public_functions(module):
                if id(func) in self._originals:
                    continue
                fn_id = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(layer)
                self._originals[id(func)] = (func, self._wrap(func, fn_id))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("fleetcontest"):
                continue
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, value))

    def uninstall(self):
        for module, name, original in self._patched:
            setattr(module, name, original)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, func, fn_id):
        name = self.names[fn_id]
        stack = self._stack
        is_solver = name in SOLVERS

        def wrapper(*args, **kwargs):
            in_solver = bool(stack) and stack[-1][2]
            if is_solver and not in_solver:
                self.solves += 1           # counted on entry: a solve that raises still ran
            parent = stack[-1][1] if stack else -1
            start = perf_counter()
            stack.append([0.0, self._open(fn_id, parent, start), in_solver or is_solver])
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                child_time, index, _ = stack.pop()
                self._close(fn_id, index, end - start, end, child_time)
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def _open(self, fn_id, parent, start):
        spans = self.spans
        index = len(spans["fn"])
        if index >= MAX_SPANS:
            self.dropped += 1
            return -1
        spans["fn"].append(fn_id)
        spans["parent"].append(parent)
        spans["op"].append(self.op)
        spans["start"].append(start)
        spans["end"].append(start)
        return index

    def _close(self, fn_id, index, duration, end, child_time):
        if self._stack:
            self._stack[-1][0] += duration
        if index >= 0:
            self.spans["end"][index] = end
        layer = self.layer_of[fn_id]
        name = self.names[fn_id]
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child_time
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1

    def _count(self, name, args, result):
        if name == "interior.interior_equilibrium":
            self.root_iterations += result.trace.iterations
            self.interior_accepted += result.is_interior
        elif name == "boundary.enumerate_candidates":
            self.candidates += len(result)
            self.certified += sum(c.certified for c in result)
        elif name == "verify.iterated_best_response":
            self.ibr_rounds += result.iterations
        elif name == "kernels.two_region_scan":
            self.cells += (int(args[8]) + 1) * (int(args[9]) + 1)

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, rounds, overhead_s, scale):
        """Per-layer metrics, each a total per round of the workload.

        Times are multiplied by scale, the host-speed correction of the
        traced rounds.
        """
        def per_round(value):
            return value / rounds

        def calls(name):
            return self.calls.get(name, 0)

        def seconds(name):
            return self.total_time.get(name, 0.0) * scale

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {f"{layer}.self_s": (per_round(self.self_time.get(layer, 0.0) * scale), "s")
                   for layer in LAYERS}
        interior_calls = calls("interior.interior_equilibrium")
        metrics.update({
            "experiments.solves": (per_round(self.solves), "count"),
            "boundary.enumerations": (per_round(calls("boundary.enumerate_candidates")), "count"),
            "boundary.certified_per_candidate": (ratio(self.certified, self.candidates), "ratio"),
            "interior.calls": (per_round(interior_calls), "count"),
            "interior.root_iterations_per_call": (ratio(self.root_iterations, interior_calls), "count"),
            "interior.mass_balance_us": (
                ratio(seconds("interior.mass_balance"), calls("interior.mass_balance")) * 1e6, "us"),
            "interior.accepted_per_call": (ratio(self.interior_accepted, interior_calls), "ratio"),
            "verify.ne_residual_s": (per_round(seconds("verify.ne_residual")), "s"),
            "verify.ne_residual_calls": (per_round(calls("verify.ne_residual")), "count"),
            "verify.best_response_calls": (per_round(calls("verify.best_response")), "count"),
            "verify.ibr_rounds_per_call": (
                ratio(self.ibr_rounds, calls("verify.iterated_best_response")), "count"),
            "kernels.cells": (per_round(self.cells), "count"),
            "kernels.ns_per_cell": (
                ratio(seconds("kernels.two_region_scan"), self.cells) * 1e9, "ns"),
            "game.utility_calls": (per_round(calls("game.utility")), "count"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return metrics

    def write(self, path, meta):
        """Write the kept spans and the function names as one .npz file."""
        spans = {key: np.frombuffer(values, dtype=values.typecode)
                 for key, values in self.spans.items()}
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                 dropped=np.array(self.dropped), **spans)
