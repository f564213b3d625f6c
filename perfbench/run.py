"""Layered benchmark of dualgp: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py                       # every workload, end to end
    python3 perfbench/run.py --trace 1             # every workload, per layer
    python3 perfbench/run.py --workload cart_long --seed 3 --seconds 20 --trace 0

Run from any directory; the program is imported from the src/ next to
this directory. Every measurement happens in fresh worker processes
(child.py), one at a time: a few that only set up, then several that
each run a first pass and warm passes. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
no --workload it maps each workload to such an object. Lines before it
print the machine record and every metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("logistic_long", "cart_long", "nonlinear_sweep", "info_select")
SETUP_ONLY = 3  # set-up-only processes per run, besides the full ones
# warm passes per full process. Each full process also pays one first pass,
# the cost wall_s measures, so few warm passes per process give more first
# passes per run, and the fastest of more samples is steadier
WARM = {"logistic_long": 1, "cart_long": 1, "nonlinear_sweep": 3, "info_select": 2}
# The benchmark and its workers run BLAS single-threaded. The host gives a
# few cores that other tenants share; a second BLAS thread made no pass faster
# there (the matrices are at most 1000 x 1000), slowed info_select by a
# seventh and made every pass wait on both cores. The thread count in effect
# is in the machine record.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_FULL = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(workload, seed, mode, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--warm", str(WARM[workload]),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _totals(children):
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    messages = [m for c in children for m in c["messages"]]
    return attempted, failed, messages


def end_to_end(workload, seed, seconds, out_dir, log):
    start = time.perf_counter()
    setups = [_child(workload, seed, "setup", out_dir) for _ in range(SETUP_ONLY)]
    children, durations = [], []
    while True:
        now = time.perf_counter()
        # start another full process only if one as slow as the slowest so far
        # still ends within --seconds
        if len(children) >= MIN_FULL and now - start + max(durations) > seconds:
            break
        children.append(_child(workload, seed, "main", out_dir))
        durations.append(time.perf_counter() - now)
    setups += children
    warm = [(w, scale) for c in children for w, scale in zip(c["warm_wall_s"], c["warm_scales"])]
    # latency statistics are taken per warm pass; a metric is its fastest pass's
    passes = [(p, scale) for c in children for p, scale in zip(c["latencies"], c["warm_scales"])]

    # Each time is the fastest sample of the run, every sample scaled by the
    # host's speed around it (hostspeed.py, timed by the worker). Other tenants
    # of the host slow every process by up to a factor of two, for tens of
    # seconds or for a whole run; the scaling takes out most of a slow run, and
    # since contention only adds time, the fastest sample drops what is left of
    # a slow moment.
    def latency_ms(stat):
        return _metric(min(p[stat] * scale for p, scale in passes) / 1e6, "ms")

    attempted, failed, messages = _totals(children)
    succeeded = sum(c["succeeded"] for c in children)
    metrics = {
        "setup_s": _metric(min(c["setup_s"] * c["setup_scale"] for c in setups), "s"),
        "wall_s": _metric(min(c["wall_s"] * c["first_scale"] for c in children), "s"),
        "warm_wall_s": _metric(min(w * scale for w, scale in warm), "s"),
        "step_ms_p50": latency_ms("p50"),
        "late_step_ms": latency_ms("late"),
        "cpu_s": _metric(min(c["cpu_s"] * c["first_scale"] for c in children), "s"),
        "peak_rss_mb": _metric(statistics.median(c["peak_rss_mb"] for c in children), "MB"),
        # a run of BENCHMARK.json's length attempts at most ~1000 operations (on the
        # sweep): ok_frac's bound there (1e-4) is below 1/attempted, so one failure trips it
        "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
        "success_frac": _metric(succeeded / attempted, "fraction"),
    }
    log(f"samples: {len(setups)} set-ups, {len(children)} first passes, "
        f"{len(warm)} warm passes of {passes[0][0]['steps']} steps each")
    if passes[0][0]["steps"] >= 100:
        # printed, not bounded: the slowest steps follow the shared host's load, and
        # this percentile's run-to-run spread exceeds the largest bound a metric may have
        log(f"step_ms_p99 {latency_ms('p99')['value']:.6g} ms (fastest warm pass; "
            "not in the result)")
    log(f"fail_frac {failed / attempted:.6g} fraction ({failed}/{attempted} operations)")
    scales = sorted([c["first_scale"] for c in children] + [s for _, s in warm])
    log(f"host speed scale over the passes: median {statistics.median(scales):.3f}, "
        f"{scales[0]:.3f} to {scales[-1]:.3f}; unscaled, fastest: setup_s "
        f"{min(c['setup_s'] for c in setups):.6g} s, wall_s "
        f"{min(c['wall_s'] for c in children):.6g} s, warm_wall_s {min(w for w, _ in warm):.6g} s")
    log(f"first-pass minor faults (median) {statistics.median(c['minor_faults'] for c in children)}")
    return metrics, attempted, failed, messages, children[0]["machine"]


def per_layer(workload, seed, seconds, out_dir, log):
    start = time.perf_counter()
    children = [_child(workload, seed, "trace", out_dir)]
    # more traced processes while another one fits in the time asked for
    while (time.perf_counter() - start) * (len(children) + 1) / len(children) <= seconds:
        children.append(_child(workload, seed, "trace", out_dir))
    metrics = {
        name: _metric(statistics.median(c["layers"][name][0] for c in children), unit)
        for name, (_, unit) in children[0]["layers"].items()
    }
    attempted, failed, messages = _totals(children)
    plain = statistics.median(c["wall_s"] for c in children)
    log(f"samples: {len(children)} traced processes")
    for what, key in (("tracing", "traced_wall_s"), ("step clock", "stamped_wall_s")):
        other = statistics.median(c[key] for c in children)
        log(f"{what}: warm pass {other:.4f} s vs plain {plain:.4f} s ({(other - plain) / plain:+.1%})")
    log("spans (first traced process): name calls total_ms self_ms")
    for name, (calls, total, own) in children[0]["spans"].items():
        log(f"  {name} {calls} {total:.3f} {own:.3f}")
    return metrics, attempted, failed, messages, children[0]["machine"]


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, log):
    host = machine.host(ROOT)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as out_dir:
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed, messages, libs = measure(workload, seed, seconds, out_dir, log)
    declared = _declared(trace)
    if declared != {name: m["unit"] for name, m in metrics.items()}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    log("machine " + json.dumps({**host, **libs}, sort_keys=True))
    for message in messages:
        log(f"check failed: {message}")
    for name, m in metrics.items():
        log(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="dualgp layered benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # inherited by every worker
    if not os.path.isfile(os.path.join(ROOT, "src", "dualgp", "__init__.py")):
        print(f"no dualgp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, log)
        else:
            result = {w: run_workload(w, args.seed, args.seconds, args.trace, log)
                      for w in WORKLOADS}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
