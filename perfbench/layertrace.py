"""Outside-in layer timing for the aded package.

A ``Tracer`` replaces public functions at the name their caller looks them
up (a module global or a class attribute) with a wrapper that keeps, per
layer: calls, inclusive seconds, self seconds (inclusive minus the time of
child spans) and the objective evaluations made inside the layer's spans.
Spans are aggregated in memory as they close; a traced repetition makes
hundreds of thousands of objective calls, too many to keep one by one.

Nothing in the package is edited: the hooks are installed on entry and the
original bindings are restored on exit.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute where the caller looks the function up, layer name).
# One layer may be bound under several names, one per calling module.
HOOKS = (
    ("aded.benchmarks", "BenchmarkSpec.evaluate", "benchmarks.evaluate"),
    ("aded.benchmarks", "MultiObjectiveSpec.evaluate", "benchmarks.evaluate"),
    ("aded.engine", "local_refine", "variation.local_refine"),
    ("aded.moo", "local_refine", "variation.local_refine"),
    ("aded.variation", "minimize", "variation.minimize"),
    ("aded.variation", "finite_difference_gradient", "variation.finite_difference_gradient"),
    ("aded.engine", "dynamic_neighborhood", "engine.dynamic_neighborhood"),
    ("aded.engine", "update_neighborhoods", "engine.update_neighborhoods"),
    ("aded.engine", "mutate", "variation.mutate"),
    ("aded.engine", "apply_crossover", "variation.apply_crossover"),
    ("aded.engine", "clip_to_bounds", "core.clip_to_bounds"),
    ("aded.moo", "clip_to_bounds", "core.clip_to_bounds"),
    ("aded.variation", "clip_to_bounds", "core.clip_to_bounds"),
    ("aded.metrics", "diversity", "metrics.diversity"),
    ("aded.metrics", "fdc", "metrics.fdc"),
    ("aded.engine", "run_aded", "engine.run_aded"),
    ("aded.engine", "run_classic_de", "engine.run_classic_de"),
    ("aded.moo", "scalarize", "moo.scalarize"),
    ("aded.moo", "pareto_dominates", "moo.pareto_dominates"),
    ("aded.moo", "nondominated_filter", "moo.nondominated_filter"),
    ("aded.harness", "run_aded_mo", "moo.run_aded_mo"),
    ("aded.harness", "cmd_moo", "harness.cmd_moo"),
)

EVALUATE = "benchmarks.evaluate"
REFINE = "variation.local_refine"
GRADIENT = "variation.finite_difference_gradient"

# Layers reported as calls + self seconds, and layers reported as self seconds.
COUNTED = (
    "engine.dynamic_neighborhood", "engine.update_neighborhoods",
    "variation.mutate", "variation.apply_crossover", "core.clip_to_bounds",
    "metrics.diversity", "metrics.fdc",
    "moo.scalarize", "moo.pareto_dominates", "moo.nondominated_filter",
)
ENTRY_POINTS = ("engine.run_aded", "engine.run_classic_de", "moo.run_aded_mo", "harness.cmd_moo")


class Layer:
    __slots__ = ("calls", "seconds", "self_seconds", "cpu_seconds", "evals", "improved")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.cpu_seconds = 0.0
        self.evals = 0
        self.improved = 0


class Tracer:
    """Context manager that installs the hooks in ``HOOKS`` and removes them
    on exit. A hook whose module or attribute no longer exists is listed in
    ``absent`` and its layer reads zero."""

    def __init__(self):
        self.layers = {name: Layer() for _, _, name in HOOKS}
        self.absent: list = []
        self._stack: list = []      # one [layer, child seconds] per open span
        self._undo: list = []

    def __enter__(self):
        self.absent = []            # layers keep adding up when entered again
        for module_name, attr, layer_name in HOOKS:
            owner_path, _, name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            target = getattr(owner, name, None)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            layer = self.layers[layer_name]
            if layer_name == EVALUATE:
                wrapper = self._span(layer, target, counts_evals=True)
            elif layer_name == REFINE:
                wrapper = self._refine_span(layer, target)
            else:
                wrapper = self._span(layer, target)
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, target))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, target = self._undo.pop()
            setattr(owner, name, target)
        return False

    def _span(self, layer: Layer, fn, counts_evals: bool = False):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counts_evals:
                for frame in stack:
                    frame[0].evals += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.calls += 1
                layer.seconds += elapsed
                layer.self_seconds += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _refine_span(self, layer: Layer, fn):
        """Span that also takes process CPU time and records whether the
        refinement ended below the value of its start point (the first
        objective call it makes)."""
        span = self._span(layer, fn)

        def wrapper(objective, *args, **kwargs):
            first = []

            def probe(z):
                value = objective(z)
                if not first:
                    first.append(value)
                return value

            cpu = time.process_time()
            try:
                result = span(probe, *args, **kwargs)
            finally:
                layer.cpu_seconds += time.process_time() - cpu
            if first and result[1] < first[0]:
                layer.improved += 1
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        layers = self.layers
        out = {}
        evaluate = layers[EVALUATE]
        out[f"{EVALUATE}.calls"] = (evaluate.calls, "count")
        out[f"{EVALUATE}.self_s"] = (evaluate.self_seconds, "s")
        out[f"{EVALUATE}.us_per_call"] = (
            1e6 * evaluate.self_seconds / evaluate.calls if evaluate.calls else 0.0, "us")
        refine = layers[REFINE]
        out[f"{REFINE}.calls"] = (refine.calls, "count")
        out[f"{REFINE}.s"] = (refine.seconds, "s")
        out[f"{REFINE}.self_s"] = (refine.self_seconds, "s")
        out[f"{REFINE}.cpu_s"] = (refine.cpu_seconds, "s")
        out[f"{REFINE}.evals"] = (refine.evals, "count")
        out[f"{REFINE}.improved_frac"] = (
            refine.improved / refine.calls if refine.calls else 0.0, "fraction")
        out["variation.minimize.self_s"] = (layers["variation.minimize"].self_seconds, "s")
        gradient = layers[GRADIENT]
        out[f"{GRADIENT}.calls"] = (gradient.calls, "count")
        out[f"{GRADIENT}.s"] = (gradient.seconds, "s")
        out[f"{GRADIENT}.self_s"] = (gradient.self_seconds, "s")
        out[f"{GRADIENT}.evals"] = (gradient.evals, "count")
        # the refinement's evaluations that are not gradient probes
        out["variation.line_search.evals"] = (refine.evals - gradient.evals, "count")
        for name in COUNTED:
            out[f"{name}.calls"] = (layers[name].calls, "count")
            out[f"{name}.self_s"] = (layers[name].self_seconds, "s")
        for name in ENTRY_POINTS:
            out[f"{name}.self_s"] = (layers[name].self_seconds, "s")
        return out
