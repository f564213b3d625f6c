"""The four benchmark workloads: inputs from a seed, and the timed body.

Each workload is built in two steps. ``build`` is the set-up a user pays
before the first closed-loop step (resolve the config, build the plant,
the I/O model and the action set, or the GP instances for selection);
``body`` is the work a ``dualgp run`` or ``dualgp sweep`` user waits for,
including the CSV write. Calls into ``dualgp`` go through module
attributes (``harness.run_scenario``, never a from-import) so that the
traced run can swap them for wrappers.

The benchmark seed is folded into a pool of ``POOL`` seeds, because the
correctness check compares against outputs recorded for every pool seed.
"""

import time

import numpy as np

import dualgp
from dualgp import config, harness, info

POOL = 5
SWEEP_SEEDS = 20
INFO_INSTANCES = ((1, 0), (1, 1), (2, 0), (2, 1))  # (input dim, index)
INFO_TRAIN = 200
INFO_CANDIDATES = 50
INFO_NOISE = 0.01

NAMES = ("logistic_long", "cart_long", "nonlinear_sweep", "info_select")


class StampedPlant:
    """Plant proxy that stamps the clock at every step() call.

    A closed-loop step is select, then plant, then update, so the gap
    between two consecutive stamps is one whole step of the loop.
    """

    def __init__(self, plant, stamps):
        self._plant = plant
        self._stamps = stamps

    def step(self, u):
        self._stamps.append(time.perf_counter_ns())
        return self._plant.step(u)

    def __getattr__(self, name):
        return getattr(self._plant, name)


class Stamping:
    """Wraps ``harness.build_plant`` so every plant it builds is stamped.

    ``episodes`` collects one stamp list per episode built while active.
    """

    def __init__(self):
        self.episodes = []
        self._original = None

    def __enter__(self):
        original = self._original = harness.build_plant

        def build_plant(cfg):
            stamps = []
            self.episodes.append(stamps)
            return StampedPlant(original(cfg), stamps)

        harness.build_plant = build_plant
        return self

    def __exit__(self, *exc):
        harness.build_plant = self._original
        return False


def _scenario_objects(cfg):
    """The objects run_scenario builds before its first step (timed as set-up)."""
    return harness.build_action_set(cfg), harness.build_plant(cfg), harness.build_io(cfg)


class Episodes:
    """One long closed-loop episode, written as a trace CSV."""

    def __init__(self, name, raw):
        self.name = name
        self.raw = raw

    def build(self):
        self.cfg = config.resolve_config(self.raw)
        self.objects = _scenario_objects(self.cfg)

    def body(self, out_dir):
        path = f"{out_dir}/{self.name}.csv"
        result = harness.run_scenario(self.cfg)
        harness.write_trace_csv(path, result.records)
        return {"results": [result], "path": path}


class Sweep:
    """SWEEP_SEEDS short episodes through run_sweep, offset by the benchmark seed.

    run_sweep always runs seeds 0..n-1; a shim on ``harness.run_scenario``
    shifts each one by the offset and keeps the results for checking,
    since run_sweep itself returns only the summary rows.
    """

    name = "nonlinear_sweep"

    def __init__(self, offset):
        self.offset = offset

    def build(self):
        self.cfg = config.resolve_config({"scenario": "logistic_nonlinear"})
        self.objects = _scenario_objects(self.cfg)

    def body(self, out_dir):
        path = f"{out_dir}/{self.name}.csv"
        results = []
        run_scenario = harness.run_scenario

        def shifted(cfg):
            cfg = dict(cfg)
            cfg["seed"] += self.offset
            result = run_scenario(cfg)
            results.append(result)
            return result

        harness.run_scenario = shifted
        try:
            rows = harness.run_sweep(self.cfg, SWEEP_SEEDS)
        finally:
            harness.run_scenario = run_scenario
        rows = [(seed + self.offset, *rest) for seed, *rest in rows]
        harness.write_sweep_csv(path, rows)
        return {"results": results, "rows": rows, "path": path}


def _target(x):
    """Smooth test function the selection instances are trained on."""
    return np.sin(2.0 * x[:, 0]) + (0.5 * np.cos(3.0 * x[:, 1]) if x.shape[1] > 1 else 0.0)


class Selection:
    """select_exhaustive on seeded random GPs, M = 200 points, n = 50 candidates."""

    name = "info_select"

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        self.instances = []
        for dim, index in INFO_INSTANCES:
            rng = np.random.default_rng([self.seed, dim, index])
            bounds = [(-3.0, 3.0)] * dim
            x = rng.uniform(-3.0, 3.0, size=(INFO_TRAIN, dim))
            y = _target(x) + rng.normal(0.0, np.sqrt(INFO_NOISE), size=INFO_TRAIN)
            kernel = dualgp.KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=1e-9)
            model = dualgp.GpModel(kernel, INFO_NOISE, dualgp.DataSet(x, y))
            candidates = info.sample_candidates(
                bounds, INFO_CANDIDATES, mode="uniform_random",
                seed=int(rng.integers(2**31)), exclusions=x,
            )
            self.instances.append((model, candidates))

    def body(self, out_dir):
        # one stamp before the first selection and one after each
        stamps = [time.perf_counter_ns()]
        selections = []
        for model, candidates in self.instances:
            selections.append(info.select_exhaustive(model, candidates))
            stamps.append(time.perf_counter_ns())
        return {"selections": selections, "stamps": stamps}


def make(name, seed):
    """The workload ``name`` with its inputs drawn from the benchmark seed."""
    pool_seed = seed % POOL
    if name == "logistic_long":
        # noise-free and no random prior data: the seed cannot change it
        return Episodes(name, {"scenario": "logistic_linear", "steps": 1000})
    if name == "cart_long":
        return Episodes(name, {"scenario": "cart_dual", "steps": 1000, "seed": pool_seed})
    if name == "nonlinear_sweep":
        return Sweep(pool_seed)
    if name == "info_select":
        return Selection(pool_seed)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
