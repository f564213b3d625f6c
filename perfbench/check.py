"""Correctness of each pass, against outputs recorded when the benchmark was defined.

An operation is one episode or one selection. It fails when its output
differs from the recorded reference: actions and observations must match
exactly (bit for bit in memory, and as text in the CSV), every other
column must agree within ``RTOL`` relative, with an absolute floor of
``ATOL`` for values that are round-off around zero (a variance clipped
at the jitter level). The final GP of every episode is also checked
against a dense ``numpy.linalg.solve`` of its full covariance.

Episodes the reference itself records as aborted or unsuccessful do not
fail: they count only in the success fraction. Success is judged on the
program's own output (run_sweep's rule for an episode, a finite score
for a selection), whether or not that output matched the reference.
"""

import csv
import gzip
import hashlib
import io
import json
import math
import os

import numpy as np

from dualgp import harness

RTOL = 1e-9
ATOL = 1e-12
# dense solve against the cached Cholesky factor: the noise-free logistic
# covariance has condition number ~5e8, which differ by ~3e-11 at 1000 points
DENSE_MEAN_TOL = 1e-6
DENSE_VAR_TOL = 1e-8

TRACE_EXACT = ("step", "action", "observation")
SWEEP_EXACT = ("seed", "steps_to_within_10pct", "success")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload):
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def written_trace(records, out_dir):
    """The trace CSV ``dualgp run --out`` writes for these records, as text."""
    path = os.path.join(out_dir, "check-trace.csv")
    harness.write_trace_csv(path, records)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def exact_digest(records):
    """sha256 of the raw float64 bytes of every action and observation."""
    h = hashlib.sha256()
    for r in records:
        h.update(np.asarray(r.action, dtype=float).tobytes())
        h.update(np.asarray(r.observation, dtype=float).tobytes())
    return h.hexdigest()


def _close(a, b):
    # equal infinities (a diverged episode's last error) and NaNs match themselves
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _row_diff(header, got, want, exact):
    for name, g, w in zip(header, got, want):
        if name in exact:
            if g != w:
                return f"{name}: {g} != {w}"
            continue
        g_vals, w_vals = g.split(";"), w.split(";")
        if len(g_vals) != len(w_vals) or not all(
            _close(float(a), float(b)) for a, b in zip(g_vals, w_vals)
        ):
            return f"{name}: {g} vs {w}"
    return None


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def compare_csv(got_text, want_text, exact):
    """First difference between two CSV texts, or None when they agree."""
    got, want = _rows(got_text), _rows(want_text)
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    if got[0] != want[0]:
        return f"header {got[0]} differs from {want[0]}"
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        diff = _row_diff(want[0], g_row, w_row, exact)
        if diff:
            return f"row {line} {diff}"
    return None


def succeeded(cfg, result):
    """run_sweep's success rule: completed, final-quarter error within a quarter of |r|."""
    if result.aborted is not None or not result.records:
        return False
    bound = 0.25 * float(np.linalg.norm(np.asarray(cfg["target"], dtype=float)))
    tail = result.records[-max(1, len(result.records) // 4):]
    return bool(np.mean([r.tracking_error for r in tail]) <= bound)


def dense_mismatch(result):
    """Compare every final GP's posterior on the action grid with a dense solve."""
    if not result.records:
        return None
    cfg = result.config
    phi = harness.build_action_set(cfg)
    y = np.asarray(result.records[-1].observation, dtype=float).reshape(-1)
    points = result.io.candidate_inputs(y, phi.actions)
    for gp in result.io.gps:
        means, variances = gp.posterior_batch(points)
        cov = gp.covariance_matrix()
        k = gp.kernel.cross(gp.data.inputs, points)
        dense_means = k.T @ np.linalg.solve(cov, gp.data.targets)
        dense_vars = gp.prior_variance - np.sum(k * np.linalg.solve(cov, k), axis=0)
        dense_vars = np.clip(dense_vars, 0.0, gp.prior_variance)
        mean_err = float(np.max(np.abs(means - dense_means)))
        var_err = float(np.max(np.abs(variances - dense_vars)))
        if mean_err > DENSE_MEAN_TOL or var_err > DENSE_VAR_TOL:
            return f"posterior differs from dense solve by {mean_err:.3g} (mean), {var_err:.3g} (var)"
    return None


def episode_record(result, trace_csv):
    """What the reference keeps of one episode."""
    return {
        "aborted": result.aborted,
        "exact_sha256": exact_digest(result.records),
        "trace_csv": trace_csv,
        "success": succeeded(result.config, result),
    }


def episode_mismatch(result, trace_csv, want, dense):
    """First way one episode (and the trace CSV written for it) differs from its reference."""
    if result.aborted != want["aborted"]:
        return f"aborted {result.aborted!r}, reference {want['aborted']!r}"
    if exact_digest(result.records) != want["exact_sha256"]:
        return "actions or observations differ from the reference bit for bit"
    diff = compare_csv(trace_csv, want["trace_csv"], TRACE_EXACT)
    if diff:
        return f"trace CSV: {diff}"
    return dense_mismatch(result) if dense else None


class Checker:
    """Checks the outputs of successive passes of one workload."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        self.reference = load_reference(workload.name)
        self.attempted = 0
        self.failed = 0
        self.succeeded = 0
        self.messages = []

    def _count(self, diff, success, what):
        self.attempted += 1
        self.succeeded += bool(success)
        if diff is not None:
            self.failed += 1
            self.messages.append(f"{what}: {diff}")

    def check(self, out, dense=False):
        """Count the operations of one pass; ``dense`` adds the dense GP check."""
        if "selections" in out:
            want = self.reference["selections"][str(self.workload.seed)]
            for i, (sel, ref) in enumerate(zip(out["selections"], want)):
                diff = None
                if sel.index != ref["index"]:
                    diff = f"index {sel.index}, reference {ref['index']}"
                elif not _close(sel.score, ref["score"]):
                    diff = f"score {sel.score!r}, reference {ref['score']!r}"
                self._count(diff, np.isfinite(sel.score), f"selection {i}")
            return
        with open(out["path"], encoding="utf-8") as fh:
            written = fh.read()
        sweep = "rows" in out
        if sweep:
            # one summary row per episode, in run order
            got = _rows(written)
            want_rows = _rows(self.reference["sweeps"][str(self.workload.offset)])
            shape_ok = len(got) == len(want_rows) and got[0] == want_rows[0]
        for i, result in enumerate(out["results"]):
            seed = result.config["seed"]
            want = self.reference["episodes"][str(seed)]
            # a sweep writes no traces: write each one the way `dualgp run` would
            trace_csv = written_trace(result.records, self.out_dir) if sweep else written
            diff = episode_mismatch(result, trace_csv, want, dense)
            if diff is None and sweep:
                diff = (
                    _row_diff(want_rows[0], got[i + 1], want_rows[i + 1], SWEEP_EXACT)
                    if shape_ok else "sweep CSV shape differs from the reference"
                )
            self._count(diff, succeeded(result.config, result), f"episode seed {seed}")
