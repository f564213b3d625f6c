"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the verdicts. Every
test measures its own wall time and asserts the stated budget where one
exists. Thresholds are contractual; they must not be loosened to make a
failing criterion pass.
"""

import time

import numpy as np
import pytest

from test_plants import cart_oracle

from dualgp.config import resolve_config
from dualgp.control import ActionSet, BlackBoxModel, select_action
from dualgp.gp import DataSet, GpModel, KernelConfig
from dualgp.harness import compute_slice, run_scenario
from dualgp.info import select_exhaustive
from dualgp.plants import CartPlant


def verdict(number: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def random_points(rng, m, d, min_gap=1e-3):
    """m points in [-2, 2]^d, redrawn until every pair is more than min_gap apart.

    Tries are drawn in batches that double up to 256 while a call keeps
    rejecting. On acceptance the generator is rewound and redraws only the
    tries up to the accepted one, so points and generator state are those of
    drawing one try at a time.
    """
    if m == 1:
        return rng.uniform(-2.0, 2.0, size=(1, d))
    i, j = np.triu_indices(m, 1)
    batch = 1
    while True:
        state = rng.bit_generator.state
        tries = rng.uniform(-2.0, 2.0, size=(batch, m, d))
        dist = np.sqrt(np.sum((tries[:, i] - tries[:, j]) ** 2, axis=-1))
        accepted = np.flatnonzero(np.min(dist, axis=1) > min_gap)
        if accepted.size:
            rng.bit_generator.state = state
            return rng.uniform(-2.0, 2.0, size=(accepted[0] + 1, m, d))[-1]
        batch = min(2 * batch, 256)


def dense_posterior(kernel, noise, inputs, targets, queries):
    cov = kernel.cross(inputs, inputs) + (noise + kernel.jitter) * np.eye(len(inputs))
    k_star = kernel.cross(queries, inputs)
    means = k_star @ np.linalg.solve(cov, targets)
    kappa = kernel.signal_variance + noise
    variances = kappa - np.sum(k_star * np.linalg.solve(cov, k_star.T).T, axis=1)
    return means, variances


def test_criterion_1_gp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_interp = 0.0
    worst_rel = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        a = float(rng.uniform(0.3, 2.0))
        ell = float(rng.uniform(0.5, 2.0))
        kernel = KernelConfig(signal_variance=a, length_scale=ell, jitter=1e-9)
        inputs = random_points(rng, m, d)
        targets = rng.uniform(-2.0, 2.0, size=m)

        # noise-free interpolation: zero noise AND zero jitter, with the
        # training points separated on the kernel's own length scale so
        # the covariance stays well conditioned
        clean = KernelConfig(signal_variance=a, length_scale=ell, jitter=0.0)
        sep_inputs = random_points(rng, m, d, min_gap=min(0.3 * ell, 0.35))
        interp = GpModel(clean, 0.0, DataSet(sep_inputs, targets))
        means, _ = interp.posterior_batch(sep_inputs)
        worst_interp = max(worst_interp, float(np.max(np.abs(means - targets))))

        noise = float(rng.uniform(0.0, 0.5))
        model = GpModel(kernel, noise, DataSet(inputs, targets))
        queries = rng.uniform(-2.5, 2.5, size=(5, d))
        got_m, got_v = model.posterior_batch(queries)
        ref_m, ref_v = dense_posterior(kernel, noise, inputs, targets, queries)
        scale_m = np.maximum(np.abs(ref_m), 1.0)
        scale_v = np.maximum(np.abs(ref_v), 1.0)
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(got_m - ref_m) / scale_m)),
            float(np.max(np.abs(got_v - ref_v) / scale_v)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_interp < 1e-6 and worst_rel < 1e-10 and elapsed < 5.0
    line = verdict(
        1, ok,
        f"interpolation max |err| {worst_interp:.3g} (< 1e-6), dense-solve max rel "
        f"err {worst_rel:.3g} (< 1e-10), 1000 cases in {elapsed:.2f}s (< 5s)",
    )
    assert ok, line


def test_criterion_2_information_score_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    agree = 0
    total = 200
    for _ in range(total):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        kernel = KernelConfig(
            signal_variance=float(rng.uniform(0.3, 1.5)),
            length_scale=float(rng.uniform(0.5, 2.0)),
            jitter=1e-9,
        )
        noise = float(rng.uniform(0.01, 0.3))
        model = GpModel(
            kernel, noise, DataSet(random_points(rng, m, d), rng.uniform(-1, 1, m))
        )
        n_cand = int(rng.integers(2, 7))
        theta = random_points(rng, n_cand, d)
        picked = select_exhaustive(model, theta)

        # linear-scale replica: product over the set of bordered
        # determinant ratios, argmin without ever taking a log. Each
        # determinant is np.linalg.det of the dense covariance of
        # [X; candidate; probe], built with kernel.cross
        X = model.data.inputs
        boost = noise + kernel.jitter
        base = np.linalg.det(kernel.cross(X, X) + boost * np.eye(m))
        products = []
        for probe in theta:
            prod = 1.0
            for cand in theta:
                pts = np.vstack([X, cand, probe])
                prod *= np.linalg.det(kernel.cross(pts, pts) + boost * np.eye(m + 2)) / base
            products.append(prod)
        agree += int(picked.index == int(np.argmin(products)))
    elapsed = time.perf_counter() - t0
    ok = agree == total and elapsed < 5.0
    line = verdict(
        2, ok, f"log-sum vs linear-product argmin agreement {agree}/{total} "
        f"(need 100%), in {elapsed:.2f}s (< 5s)",
    )
    assert ok, line


def test_criterion_3_variance_monotone_under_observation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = -np.inf
    for _ in range(500):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 6))
        kernel = KernelConfig(
            signal_variance=float(rng.uniform(0.3, 1.5)),
            length_scale=float(rng.uniform(0.5, 2.0)),
            jitter=1e-9,
        )
        noise = float(rng.uniform(0.01, 0.3))
        model = GpModel(
            kernel, noise, DataSet(random_points(rng, m, d), rng.uniform(-1, 1, m))
        )
        probes = rng.uniform(-2.5, 2.5, size=(20, d))
        _, before = model.posterior_batch(probes)
        grown = model.with_observation(rng.uniform(-2, 2, d), float(rng.uniform(-1, 1)))
        _, after = grown.posterior_batch(probes)
        worst = max(worst, float(np.max(after - before)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    line = verdict(
        3, ok,
        f"max variance increase {worst:.3g} over 500 instances x 20 probes "
        f"(tolerance 1e-9), in {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_4_logistic_linear_tracking_and_slice():
    t0 = time.perf_counter()
    cfg = resolve_config({"scenario": "logistic_linear"})
    result = run_scenario(cfg)
    late = [r.tracking_error for r in result.records if r.step >= 30]
    max_late = max(late)
    _, rows = compute_slice(cfg, 0.0, 0, 0.0, 1.0, 101)
    stds = np.array([r[3] for r in rows])
    x_at_min_std = rows[int(np.argmin(stds))][0]
    elapsed = time.perf_counter() - t0
    ok = (
        result.aborted is None
        and max_late < 0.05
        and abs(x_at_min_std - 0.8) <= 0.15
        and elapsed < 10.0
    )
    line = verdict(
        4, ok,
        f"max |y-0.8| for t>=30 is {max_late:.4g} (< 0.05), slice min-std at "
        f"x={x_at_min_std:.3g} (within 0.15 of 0.8), in {elapsed:.2f}s (< 10s)",
    )
    assert ok, line


def test_criterion_5_chaotic_linear_control():
    t0 = time.perf_counter()
    passed = 0
    for seed in range(20):
        cfg = resolve_config(
            {"scenario": "logistic_linear", "plant": {"r_param": 3.8}, "seed": seed}
        )
        result = run_scenario(cfg)
        late = [r.tracking_error for r in result.records if r.step >= 50]
        passed += int(result.aborted is None and late and max(late) < 0.1)
    elapsed = time.perf_counter() - t0
    ok = passed >= 15 and elapsed < 120.0
    line = verdict(
        5, ok,
        f"r=3.8 additive: tracking < 0.1 for all t>=50 on {passed}/20 seeds "
        f"(need >= 15), in {elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_6_nonlinear_coupling_control():
    t0 = time.perf_counter()
    finals = []
    for seed in range(20):
        cfg = resolve_config({"scenario": "logistic_nonlinear", "seed": seed})
        result = run_scenario(cfg)
        if result.aborted is None and len(result.records) >= 20:
            finals.append(
                float(np.mean([r.tracking_error for r in result.records[-20:]]))
            )
        else:
            finals.append(float("inf"))
    passed = sum(1 for f in finals if f < 0.2)
    elapsed = time.perf_counter() - t0
    shown = ", ".join("div" if not np.isfinite(f) else f"{f:.3g}" for f in finals)
    print(f"  per-seed final-20 mean tracking error: {shown}")
    ok = passed >= 10 and elapsed < 120.0
    line = verdict(
        6, ok,
        f"cosine coupling: final-20 mean error < 0.2 on {passed}/20 seeds "
        f"(need >= 10), in {elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_7_cart_dual_vs_benchmark():
    t0 = time.perf_counter()
    dual = run_scenario(resolve_config({"scenario": "cart_dual"}))
    bench = run_scenario(resolve_config({"scenario": "cart_benchmark"}))

    def first_hit(records):
        for rec in records:
            if abs(rec.observation[0] - 0.5) <= 0.05:
                return rec.step
        return None

    dual_hit = first_hit(dual.records)
    bench_hit = first_hit(bench.records)
    elapsed = time.perf_counter() - t0
    ok = (
        dual.aborted is None
        and dual_hit is not None
        and dual_hit <= 40
        and bench_hit is not None
        and bench_hit <= dual_hit
        and elapsed < 30.0
    )
    line = verdict(
        7, ok,
        f"cart |y-0.5| <= 0.05 first at t={dual_hit} (<= 40), benchmark at "
        f"t={bench_hit} (<= dual), in {elapsed:.1f}s (< 30s)",
    )
    assert ok, line


def test_criterion_8_cart_dynamics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        state = rng.uniform([-1, -2, -np.pi, -3], [1, 2, np.pi, 3])
        u = float(rng.uniform(-10, 10))
        got = CartPlant().simulate(state, u)
        want = cart_oracle(state, u)
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(want)))))

    plant = CartPlant(state=[0.3, 0.0, 0.0, 0.0])
    exact = True
    for _ in range(1000):
        plant.step(0.0)
        exact = exact and np.array_equal(plant.state, np.array([0.3, 0.0, 0.0, 0.0]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and exact
    line = verdict(
        8, ok,
        f"independent oracle max |err| {worst:.3g} over 100 states (<= 1e-12), "
        f"equilibrium exact for 1000 steps: {exact}, in {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_9_deterministic_traces(tmp_path):
    from dualgp.harness import write_trace_csv

    t0 = time.perf_counter()
    identical = {}
    for scenario in ("logistic_linear", "logistic_nonlinear", "cart_dual", "cart_benchmark"):
        cfg = resolve_config({"scenario": scenario})
        blobs = []
        for attempt in range(2):
            path = tmp_path / f"{scenario}_{attempt}.csv"
            write_trace_csv(path, run_scenario(cfg).records)
            blobs.append(path.read_bytes())
        identical[scenario] = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    ok = all(identical.values())
    line = verdict(
        9, ok,
        "byte-identical reruns: "
        + ", ".join(f"{k}={v}" for k, v in identical.items())
        + f", in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_10_weight_scaling_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    stable = 0
    total = 100
    for _ in range(total):
        io = BlackBoxModel(
            KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=1e-9),
            noise_variance=0.1,
        )
        for _ in range(int(rng.integers(1, 5))):
            io.update(
                rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
            )
        y = rng.uniform(-1, 1, 1)
        r = float(rng.uniform(-1, 1))
        w1, w2 = (float(v) for v in rng.uniform(0.05, 3.0, 2))
        c = float(rng.uniform(0.01, 100.0))
        phi = ActionSet(rng.uniform(-1, 1, int(rng.integers(3, 10))))
        base = select_action(io, y, r, phi, w1, w2)
        scaled = select_action(io, y, r, phi, c * w1, c * w2)
        stable += int(base.index == scaled.index)
    elapsed = time.perf_counter() - t0
    ok = stable == total
    line = verdict(
        10, ok,
        f"argmin unchanged under positive weight scaling on {stable}/{total} "
        f"instances (need all), in {elapsed:.2f}s",
    )
    assert ok, line
