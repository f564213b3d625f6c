"""One fresh benchmark process: set up a workload, run its passes, check them.

Started by run.py, never by hand. Prints one JSON object on its last
stdout line. Modes:

- ``setup``: only the set-up (import dualgp, resolve the config, build
  the objects), timed.
- ``main``: set-up, one first pass without the step clock, then
  ``--warm`` warm passes with the step clock.
- ``trace``: set-up under the tracer, then a first pass, a plain warm
  pass, a warm pass with the step clock and a traced warm pass; reports
  the per-layer metrics of the traced pass.

CPU time and page faults come from getrusage on this process only. In
``setup`` and ``main`` mode the worker also times the host-speed kernel
(hostspeed.py, in a helper process that waits while a pass runs) after
the set-up and after every pass, and reports the scale for each sample.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_workloads():
    """Import dualgp from this checkout's src/ (and nothing installed elsewhere)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import workloads

    if not os.path.abspath(workloads.dualgp.__file__).startswith(src + os.sep):
        raise SystemExit(f"dualgp imported from {workloads.dualgp.__file__}, not {src}")
    return workloads


class Pass:
    """Wall time, CPU time and minor faults of one call of the workload body."""

    def __init__(self, body, out_dir):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        self.out = body(out_dir)
        self.wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.minor_faults = after.ru_minflt - before.ru_minflt


def _pct(values, q):
    """q-th percentile by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _pass_latencies(stamp_lists):
    """Step latency statistics of one warm pass, in ns.

    Each stamp list is one episode (or the selections of one pass); a
    step is the gap between two stamps. ``late`` is the median over the
    last tenth of the steps of each episode, where M is largest.
    """
    steps, late = [], []
    for stamps in stamp_lists:
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        steps += gaps
        late += gaps[len(gaps) - max(1, len(gaps) // 10):] if gaps else []
    return {
        "steps": len(steps),
        "p50": statistics.median(steps),
        "p99": _pct(steps, 99),
        "late": statistics.median(late),
    }


def _stamped_pass(workloads, workload, out_dir):
    """A warm pass with the step clock; returns the pass and its stamp lists."""
    if isinstance(workload, workloads.Selection):
        run = Pass(workload.body, out_dir)
        return run, [run.out["stamps"]]
    with workloads.Stamping() as stamping:
        run = Pass(workload.body, out_dir)
    return run, stamping.episodes


class _NullPlant:
    def step(self, u):
        return u

    def output(self):
        return 0.0


def _stamp_cost_ns(workloads, calls=20000):
    """Extra time per closed-loop step that the step clock's proxy costs.

    A pass of the episode workloads calls step() and output() once per
    step; both are timed through the proxy and directly on a plant that
    does nothing, and the difference is the proxy's own cost.
    """
    plant = _NullPlant()
    proxy = workloads.StampedPlant(plant, [])
    start = time.perf_counter_ns()
    for _ in range(calls):
        plant.step(0.0)
        plant.output()
    bare = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        proxy.step(0.0)
        proxy.output()
    return max(0.0, (time.perf_counter_ns() - start - bare) / calls)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_main(workloads, workload, checker, args, kernel, before):
    """First and warm passes, each between two runs of the host-speed kernel.

    ``before`` is the kernel's time just before the first pass.
    """
    first = Pass(workload.body, args.out_dir)
    after = kernel.run()
    first_scale = kernel.factor(before, after)
    checker.check(first.out)
    warm, scales, latencies = [], [], []
    for i in range(args.warm):
        before = after
        run, stamp_lists = _stamped_pass(workloads, workload, args.out_dir)
        after = kernel.run()
        warm.append(run.wall_s)
        scales.append(kernel.factor(before, after))
        latencies.append(_pass_latencies(stamp_lists))
        last = i == args.warm - 1
        if last:
            peak = _peak_rss_mb()  # before the dense check allocates
        checker.check(run.out, dense=last)
    return {
        "wall_s": first.wall_s,
        "cpu_s": first.cpu_s,
        "first_scale": first_scale,
        "minor_faults": first.minor_faults,
        "warm_wall_s": warm,
        "warm_scales": scales,
        "latencies": latencies,
        "peak_rss_mb": peak,
    }


def run_trace(workloads, workload, checker, args, tracer, setup_spans):
    first = Pass(workload.body, args.out_dir)
    checker.check(first.out)
    plain = Pass(workload.body, args.out_dir)
    checker.check(plain.out)
    stamped, stamp_lists = _stamped_pass(workloads, workload, args.out_dir)
    checker.check(stamped.out)
    stamps = sum(len(s) for s in stamp_lists)
    tracer.reset()
    tracer.install()
    try:
        traced = Pass(workload.body, args.out_dir)
    finally:
        tracer.uninstall()
    checker.check(traced.out, dense=True)
    metrics = tracer.layer_metrics()
    metrics["config.resolve_config.ms"] = (setup_spans.get("config.resolve_config", (0, 0.0))[1], "ms")
    metrics["process.minor_faults"] = (first.minor_faults, "count")
    metrics["process.minor_faults_warm"] = (plain.minor_faults, "count")
    metrics["process.cpu_s_warm"] = (plain.cpu_s, "s")
    metrics["trace.overhead_ms"] = ((traced.wall_s - plain.wall_s) * 1e3, "ms")
    metrics["bench.stamp_overhead_ms"] = (stamps * _stamp_cost_ns(workloads) / 1e6, "ms")
    return {
        "layers": {name: [value, unit] for name, (value, unit) in metrics.items()},
        "spans": tracer.span_table(),
        "wall_s": plain.wall_s,
        "stamped_wall_s": stamped.wall_s,
        "traced_wall_s": traced.wall_s,
    }


def run_checked(workloads, workload, args, result, run, *extra):
    """Run the passes of ``run`` under the checker and add both to ``result``."""
    import check
    import machine

    checker = check.Checker(workload, args.out_dir)
    result.update(run(workloads, workload, checker, args, *extra))
    result.update({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "succeeded": checker.succeeded,
        "messages": checker.messages[:5],
        "machine": machine.libraries(),
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "main", "trace"), required=True)
    parser.add_argument("--warm", type=int, default=1, help="warm passes in main mode")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # set-up: import dualgp, resolve the config, build the objects
    start = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.make(args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload.build()
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.mode == "trace":
        run_checked(workloads, workload, args, result, run_trace, tracer, tracer.span_table())
    else:
        with hostspeed.HostSpeed() as kernel:
            before = kernel.run()
            result["setup_scale"] = kernel.factor(before)
            if args.mode == "main":
                run_checked(workloads, workload, args, result, run_main, kernel, before)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
