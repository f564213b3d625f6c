"""Experiment runner behind the CLI: configs to episodes, episodes to CSV.

Everything here is deterministic per (config, seed): the observation
noise stream derives from the config's seed, as do any random prior
measurements that ``config.build_io`` seeds the structure with, so
rerunning a config reproduces its trace byte for byte and the slice path
rebuilds the exact GP the run finished with. The objects come from the
builders in ``config``; this module reads only run parameters.
"""

import csv
import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, build_action_set, build_io, build_plant
from .control import EpisodeAborted, Weights, run_benchmark_episode, run_episode

__all__ = [
    "EpisodeResult",
    "build_action_set",
    "build_io",
    "build_plant",
    "compute_slice",
    "run_scenario",
    "run_sweep",
    "summarize",
    "training_set_hash",
    "write_slice_csv",
    "write_sweep_csv",
    "write_trace_csv",
]

log = logging.getLogger("dualgp")

TRACE_HEADER = [
    "step", "action", "observation", "reference", "predicted_mean",
    "predicted_variance", "objective", "tracking_error", "estimation_error",
]


@dataclass
class EpisodeResult:
    config: dict
    records: list
    io: object
    aborted: Optional[str]  # message if the run died early, else None
    summary: dict
    training_hash: str


def training_set_hash(io) -> str:
    """Order-sensitive digest of every GP's training inputs and targets."""
    h = hashlib.sha256()
    for gp in io.gps:
        data = gp.data
        h.update(repr(data.inputs.shape).encode())
        h.update(np.ascontiguousarray(data.inputs).tobytes())
        h.update(np.ascontiguousarray(data.targets).tobytes())
    return h.hexdigest()


def summarize(cfg: dict, records: list) -> dict:
    """Headline numbers for a finished (or aborted) episode."""
    r = float(cfg["target"][0])
    band = 0.1 * abs(r)
    steps_to = -1
    for rec in records:
        if rec.tracking_error <= band:
            steps_to = rec.step
            break
    # a blown-up trajectory can overflow the error norm; report the last
    # finite value, or inf when every step overflowed (success flags the failure)
    if records:
        errs = [r.tracking_error for r in records]
        finite = [e for e in errs if np.isfinite(e)]
        final = finite[-1] if finite else errs[-1]
        half = len(errs) // 2
        first = float(np.mean(errs[:half])) if half else final
        second = float(np.mean(errs[half:]))
    else:
        # aborted before the first step completed: distance from rest
        final = abs(float(cfg["x0"][0]) - r)
        first = second = final
    return {
        "final_tracking_error": float(final),
        "steps_to_within_10pct": steps_to,
        "mean_tracking_error_first_half": first,
        "mean_tracking_error_second_half": second,
    }


def run_scenario(cfg: dict) -> EpisodeResult:
    """Execute one resolved config end to end; an early stop is returned, not raised.

    ``aborted`` then holds the EpisodeAborted message and ``records`` the
    steps done. The structure starts from the initial_data rows that
    ``build_io`` seeds; a row the GP rejects raises ConfigError there, which
    ``resolve_config`` has already raised for such a config.
    """
    phi = build_action_set(cfg)
    plant = build_plant(cfg)
    io = build_io(cfg)
    log.debug("seeded %d prior transition(s)", len(io.gps[0].data))
    aborted = None
    try:
        if cfg["selection"] == "benchmark":
            records = run_benchmark_episode(plant, io, phi, cfg["target"][0], cfg["steps"])
        else:
            records = run_episode(
                plant, io, phi, cfg["target"][0], Weights(**cfg["weights"]), cfg["steps"],
                seed=cfg["seed"], noise_variance=cfg["noise_variance"],
            )
    except EpisodeAborted as exc:
        records, aborted = exc.records, str(exc)
    if aborted:
        log.info("episode aborted: %s", aborted)
    summary = summarize(cfg, records)
    digest = training_set_hash(io)
    log.info(
        "scenario %s: %d step(s), final error %.6g, training hash %s",
        cfg["scenario"], len(records), summary["final_tracking_error"], digest[:12],
    )
    return EpisodeResult(cfg, records, io, aborted, summary, digest)


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _cell(value) -> str:
    return ";".join(map(_fmt, np.asarray(value, dtype=float).ravel().tolist()))


def _write_csv(path, header, rows):
    """Write a header and rows as CSV through a temp file in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    log.info("wrote %s", path)


def write_trace_csv(path, records):
    _write_csv(path, TRACE_HEADER, (
        [
            r.step, _cell(r.action), _cell(r.observation), _cell(r.reference),
            _cell(r.predicted_mean), _cell(r.predicted_variance),
            _fmt(r.objective_value), _fmt(r.tracking_error), _fmt(r.estimation_error),
        ]
        for r in records
    ))


def compute_slice(cfg: dict, at_u: float, coord: int, lo: float, hi: float, n: int):
    """Rerun the config, then cut the learned map along one observation axis.

    Every other state coordinate sits at its initial value. Returns
    (result, rows) where rows are (x, true next value, predicted mean,
    predicted std) for the swept coordinate.
    """
    if n < 2:
        raise ConfigError("slice.n", f"must be >= 2, got {n}")
    for field, value in (("slice.at_u", at_u), ("slice.min", lo), ("slice.max", hi)):
        if not np.isfinite(value):
            raise ConfigError(field, f"must be finite, got {value}")
    if not (hi > lo and np.isfinite(float(hi) - float(lo))):  # Python floats: inf, no warning
        raise ConfigError("slice.max", f"must exceed min={lo} by a finite span, got {hi}")
    plant = build_plant(cfg)  # an instance of its own, for its exact map
    obs_dim = plant.output().shape[0]
    if not 0 <= coord < obs_dim:
        raise ConfigError("slice.coord", f"must be in [0, {obs_dim}), got {coord}")
    result = run_scenario(cfg)
    if result.aborted:
        return result, []
    rows = []
    for x in np.linspace(lo, hi, n):
        state = np.array(plant.state, dtype=float)  # 0-d for a logistic plant
        state.flat[coord] = x
        true_next = plant.output_of(plant.simulate(state, at_u))[coord]
        means, variances = result.io.predict_batch(plant.output_of(state), np.array([[at_u]]))
        mean, var = means[0, coord], variances[0, coord]
        rows.append((float(x), float(true_next), float(mean), float(np.sqrt(var))))
    return result, rows


def write_slice_csv(path, rows):
    _write_csv(
        path, ["x", "true_value", "mean", "std"],
        ([_fmt(x), _fmt(true_value), _fmt(mean), _fmt(std)] for x, true_value, mean, std in rows),
    )


def run_sweep(cfg: dict, n_seeds: int):
    """Run seeds 0..n_seeds-1 and tabulate how each run ended.

    A seed succeeds if the run completed and its mean tracking error
    over the final quarter of the episode is within a quarter of the
    reference magnitude; band entry time has its own column.
    """
    if n_seeds < 1:
        raise ConfigError("sweep.seeds", f"must be >= 1, got {n_seeds}")
    bound = 0.25 * abs(float(cfg["target"][0]))
    rows = []
    for seed in range(n_seeds):
        per_seed = dict(cfg)
        per_seed["seed"] = seed
        result = run_scenario(per_seed)
        success = 0
        if result.aborted is None and result.records:
            tail = result.records[-max(1, len(result.records) // 4):]
            success = int(np.mean([r.tracking_error for r in tail]) <= bound)
        rows.append((
            seed,
            result.summary["final_tracking_error"],
            result.summary["steps_to_within_10pct"],
            success,
        ))
    return rows


def write_sweep_csv(path, rows):
    _write_csv(
        path, ["seed", "final_tracking_error", "steps_to_within_10pct", "success"],
        ([seed, _fmt(final), steps_to, success] for seed, final, steps_to, success in rows),
    )
