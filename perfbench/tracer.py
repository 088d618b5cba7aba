"""Layer spans recorded from outside the program.

The tracer replaces every public function of each groverlab module by a
wrapper that records a span (function, parent span, op, start, end). The
wrapper is installed in the defining module and in every module that took
the function with a `from`-import, so calls are seen whichever name they go
through. Spans stay in flat arrays in memory and are written once, when the
run ends; `derive` turns them into per-layer calls, self time and counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "groverlab"
LAYERS = (
    "cli",
    "report",
    "grover",
    "gga",
    "coherence",
    "entanglement",
    "discord",
    "nonlocality",
    "optimizers",
    "bruteforce",
    "linalg",
)

# Private functions that are layer entry points in their own right.
EXTRA_FUNCTIONS = (("bruteforce", "_generic_measures"),)
# scipy's minimize, as imported by these modules, counts toward `optimizers`.
OPTIMIZER_ENTRY = ("discord", "nonlocality")

COUNTERS = (
    "bruteforce.bytes_computed",
    "gga.bytes_computed",
    "report.bytes_out",
    "optimizers.evals",
    "optimizers.results",
    "optimizers.converged",
)


def _grover_step_bytes(counters, args, kwargs, result):
    counters["bruteforce.bytes_computed"] += 16 * args[0].amplitudes.size


def _gga_iterate_bytes(counters, args, kwargs, result):
    steps = args[1] if len(args) > 1 else kwargs["steps"]
    counters["gga.bytes_computed"] += 16 * args[0].size * steps


def _render_bytes(counters, args, kwargs, result):
    counters["report.bytes_out"] += len(result.encode())


def _optimizer_result(counters, args, kwargs, result):
    counters["optimizers.evals"] += result.optimizer_evals
    counters["optimizers.results"] += 1
    counters["optimizers.converged"] += bool(result.converged)


# Counters computed from a call's arguments or result (bytes are computed
# from array sizes, not measured).
HOOKS = {
    "bruteforce.grover_step": _grover_step_bytes,
    "gga.gga_iterate": _gga_iterate_bytes,
    "report.render": _render_bytes,
    "discord.pairwise_discord": _optimizer_result,
    "nonlocality.svetlichny_max": _optimizer_result,
}


def _is_public_function(module, name, obj) -> bool:
    if name.startswith("_"):
        return False
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module.__name__


class Tracer:
    """Span recorder for one run; spans of one CLI invocation share an op id."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by span fn id
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = {name: 0 for name in COUNTERS}
        self.current_op = -1
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple] = []  # (module, attribute, original)
        self._build()

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == PACKAGE]

    def _build(self):
        for module in self._modules():
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in sorted(vars(module).items()):
                if _is_public_function(module, name, obj) or (layer, name) in EXTRA_FUNCTIONS:
                    self._wrappers[id(obj)] = self.wrap(obj, f"{layer}.{name}")
            if layer in OPTIMIZER_ENTRY and hasattr(module, "minimize"):
                minimize = module.minimize
                if id(minimize) not in self._wrappers:
                    self._wrappers[id(minimize)] = self.wrap(minimize, "optimizers.minimize")

    def wrap(self, fn, qualname: str):
        """A callable that records a span around each call of fn."""
        fid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        fns, parents, ops, t0s, t1s = self.fn, self.parent, self.op, self.t0, self.t1
        stack, counters = self._stack, self.counters

        def span(*args, **kwargs):
            i = len(t0s)
            fns.append(fid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[i] = perf_counter()
                t0s[i] = start
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        if inspect.isfunction(fn):
            functools.update_wrapper(span, fn)
        return span

    def install(self):
        """Point every module-level name bound to a traced function at its wrapper."""
        for module in self._modules():
            for name, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, obj))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def write(self, path: Path):
        """Write every span and counter; called once, when the run ends."""
        np.savez(
            path,
            fn=np.array(self.fn, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            t0=np.array(self.t0, dtype=np.float64),
            t1=np.array(self.t1, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
        )


def load(path: Path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in ("fn", "parent", "op", "t0", "t1")}
        spans["names"] = json.loads(str(data["names"]))
        spans["counters"] = json.loads(str(data["counters"]))
    return spans


def derive(spans: dict, passes: int) -> dict:
    """Per-layer calls and self seconds plus counters, averaged over traced passes.

    A span's self time is its duration minus the durations of its direct
    children; children lie inside their parent's interval.
    """
    names = spans["names"]
    layer_of_fn = np.array([LAYERS.index(q.partition(".")[0]) for q in names], dtype=np.int64)
    fn = spans["fn"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    duration = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=fn.size)
    self_time = duration - child_time[: fn.size]
    layer = layer_of_fn[fn]
    calls = np.bincount(layer, minlength=len(LAYERS))
    busy = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
    counters = spans["counters"]
    per = max(passes, 1)
    metrics = {}
    for i, name in enumerate(LAYERS):
        metrics[f"{name}.calls"] = calls[i] / per
        metrics[f"{name}.self_s"] = float(busy[i]) / per
    purity_ids = [i for i, q in enumerate(names) if q == "linalg.pure_subsystem_purity"]
    metrics["linalg.subset_purities"] = float(np.isin(fn, purity_ids).sum()) / per
    metrics["bruteforce.bytes_computed"] = counters["bruteforce.bytes_computed"] / per
    metrics["gga.bytes_computed"] = counters["gga.bytes_computed"] / per
    metrics["report.bytes_out"] = counters["report.bytes_out"] / per
    metrics["optimizers.evals"] = counters["optimizers.evals"] / per
    results = counters["optimizers.results"]
    # 0 when the workload made no optimizer call; see optimizers.evals.
    metrics["optimizers.converged_ratio"] = counters["optimizers.converged"] / results if results else 0.0
    return {k: float(v) for k, v in metrics.items()}
