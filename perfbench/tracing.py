"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions and class methods of the
``config``, ``harness``, ``control``, ``plants``, ``gp`` and ``info``
modules (plus ``dualgp.gp.solve_triangular``) with timing wrappers, in
this process only; ``uninstall`` puts the originals back. Spans nest on a
stack, so each one knows its caller, and are folded into per-name totals
as they end: calls, total time and time covered by wrapped children.
Counters (rows queried, bytes written, ...) are taken at the same
boundaries; the time spent taking them is excluded from the caller's
self time.
"""

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "harness", "control", "plants", "gp", "info")


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0, 0])  # name -> calls, total ns, child ns
        self.counts = defaultdict(int)
        self.stack = []  # open spans: [name, child ns]
        self._saved = []
        self._hooks = {
            "gp.GpModel.posterior_batch": self._posterior_batch,
            "gp.GpModel.with_observation": self._with_observation,
            "gp.GpModel.__init__": self._gp_init,
            "gp.GpModel.extended_log_det": self._extended_log_det,
            "gp.solve_triangular": self._solve,
            "gp.KernelConfig.cross": self._cross,
        }
        self._after = {
            name: self._csv_written
            for name in ("harness.write_trace_csv", "harness.write_sweep_csv",
                         "harness.write_slice_csv")
        }

    # -- counters ----------------------------------------------------------

    def _train_size(self, model, extra=0):
        self.counts["train_size"] = max(self.counts["train_size"], len(model.data) + extra)

    def _posterior_batch(self, args, kwargs):
        points = np.atleast_2d(np.asarray(args[1], dtype=float))
        self.counts["posterior_rows"] += points.shape[0]
        self.counts["posterior_unique_rows"] += len(np.unique(points, axis=0))
        self._train_size(args[0])

    def _with_observation(self, args, kwargs):
        n = len(args[0].data)
        # the append copies the n x n factor into a fresh (n+1) x (n+1) array
        self.counts["factor_bytes_copied"] += 8 * n * n
        self._train_size(args[0], 1)

    def _gp_init(self, args, kwargs):
        if self.stack and self.stack[-1][0] == "gp.GpModel.with_observation":
            self.counts["refactors"] += 1

    def _extended_log_det(self, args, kwargs):
        self._train_size(args[0])
        if any(frame[0] == "info.select_exhaustive" for frame in self.stack):
            self.counts["select_pairs"] += 1

    def _solve(self, args, kwargs):
        rhs = np.asarray(args[1])
        self.counts["solve_rhs_cols"] += rhs.shape[1] if rhs.ndim == 2 else 1

    def _cross(self, args, kwargs):
        rows, cols = np.atleast_2d(args[1]), np.atleast_2d(args[2])
        self.counts["cross_entries"] += rows.shape[0] * cols.shape[0]

    def _csv_written(self, args, kwargs):
        self.counts["csv_bytes"] += os.path.getsize(args[0])

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        before, after = self._hooks.get(name), self._after.get(name)
        clock = time.perf_counter_ns

        def hooked(hook, args, kwargs):
            start = clock()
            hook(args, kwargs)
            if stack:
                stack[-1][1] += clock() - start

        def wrapper(*args, **kwargs):
            if before:
                hooked(before, args, kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span = spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if after:
                    hooked(after, args, kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr) if inspect.ismodule(owner)
                            else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the traced layers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import dualgp

        modules = [importlib.import_module(f"dualgp.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{public}", obj)
                    # every module that imported the function by name
                    for m in [dualgp, *modules]:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        gp = importlib.import_module("dualgp.gp")
        self._set(gp, "solve_triangular", self._wrap("gp.solve_triangular", gp.solve_triangular))

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                self._set(cls, attr, type(value)(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(name, value))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- results -----------------------------------------------------------

    def span_table(self):
        """name -> (calls, total ms, self ms) for every span recorded."""
        return {
            name: (calls, total / 1e6, (total - child) / 1e6)
            for name, (calls, total, child) in sorted(self.spans.items())
        }

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
        spans, counts = self.spans, self.counts

        def calls(*names):
            return sum(spans[n][0] for n in names if n in spans)

        def ms(*names):
            return sum(spans[n][1] for n in names if n in spans) / 1e6

        def self_ms(*names):
            return sum(spans[n][1] - spans[n][2] for n in names if n in spans) / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        post = "gp.GpModel.posterior_batch"
        append = "gp.GpModel.with_observation"
        select = "info.select_exhaustive"
        writers = ("harness.write_trace_csv", "harness.write_sweep_csv")
        steps = ("plants.LogisticPlant.step", "plants.CartPlant.step")
        return {
            "gp.posterior_batch.calls": (calls(post), "count"),
            "gp.posterior_batch.ms": (ms(post), "ms"),
            "gp.posterior_batch.self_ms": (self_ms(post), "ms"),
            "gp.posterior_batch.rows": (counts["posterior_rows"], "count"),
            "gp.posterior_batch.unique_row_ratio": (
                ratio(counts["posterior_unique_rows"], counts["posterior_rows"]), "ratio"),
            "gp.with_observation.calls": (calls(append), "count"),
            "gp.with_observation.ms": (ms(append), "ms"),
            "gp.with_observation.self_ms": (self_ms(append), "ms"),
            "gp.with_observation.refactors": (counts["refactors"], "count"),
            "gp.with_observation.factor_bytes_copied": (
                counts["factor_bytes_copied"], "bytes_computed"),
            "gp.solve.calls": (calls("gp.solve_triangular"), "count"),
            "gp.solve.rhs_cols": (counts["solve_rhs_cols"], "count"),
            "gp.solve.ms": (ms("gp.solve_triangular"), "ms"),
            "gp.cross.calls": (calls("gp.KernelConfig.cross"), "count"),
            "gp.cross.entries": (counts["cross_entries"], "count"),
            "gp.cross.ms": (ms("gp.KernelConfig.cross"), "ms"),
            "gp.extended_log_det.calls": (calls("gp.GpModel.extended_log_det"), "count"),
            "gp.extended_log_det.ms": (ms("gp.GpModel.extended_log_det"), "ms"),
            # append builds its result through the wrapped __init__: count that once
            "gp.dataset.ms": (ms("gp.DataSet.__init__") + self_ms("gp.DataSet.append"), "ms"),
            "gp.train_size": (counts["train_size"], "count"),
            "control.select_action.calls": (calls("control.select_action"), "count"),
            "control.select_action.ms": (ms("control.select_action"), "ms"),
            "control.select_action.self_ms": (self_ms("control.select_action"), "ms"),
            "control.update.ms": (ms("control.IoModel.update"), "ms"),
            "control.update.self_ms": (self_ms("control.IoModel.update"), "ms"),
            "control.loop.self_ms": (self_ms("control.run_episode"), "ms"),
            "plants.step.ms": (ms(*steps), "ms"),
            "plants.observe.ms": (ms("plants.ObservationChannel.observe"), "ms"),
            "info.select_exhaustive.calls": (calls(select), "count"),
            "info.select_exhaustive.ms": (ms(select), "ms"),
            "info.info_score.calls": (calls("info.info_score"), "count"),
            "info.pairs_per_select": (ratio(counts["select_pairs"], calls(select)), "count"),
            "harness.run_scenario.self_ms": (self_ms("harness.run_scenario"), "ms"),
            "harness.write_csv.ms": (ms(*writers), "ms"),
            "harness.write_csv.bytes": (counts["csv_bytes"], "bytes"),
            "harness.run_sweep.ms": (ms("harness.run_sweep"), "ms"),
        }
