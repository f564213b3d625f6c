"""Steadiness check: run the benchmark in two sets on the same code and compare.

    python3 perfbench/steady.py [--seeds 10] [--workload NAME ...]

Each of the two sets runs every chosen workload once per seed (a
different seed for every run, as the benchmark's contract asks). For
each end-to-end metric and workload it prints, per set, the median and
the quartile spread (Q3 - Q1 of the runs, as a share of their median),
then the change of the second median from the first. The verdict is
SPREAD when a set's spread exceeds the metric's bound in BENCHMARK.json,
and DRIFT when the two medians differ, in either direction, by more than
that bound; every metric is held to both, ``setup_s`` too. A spread
marked ``wide`` exceeds a third of the bound.
The raw results are kept in perfbench/.steady/ for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse(first, second, better):
    """How much worse the second median is than the first, as a share of the first.

    Negative when the second is better; DRIFT is judged on the magnitude.
    """
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="two sets of benchmark runs on the same code")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give a spread")
    workloads = args.workload or names

    sets = []
    seed = 1
    for s in range(SETS):
        runs = {w: [] for w in workloads}
        for _ in range(args.seeds):
            for w in workloads:
                result = run_once(w, seed, bench["run_seconds"])
                runs[w].append(result)
                print(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                      f"{result['elapsed_s']:.1f} s", flush=True)
            seed += 1
        sets.append(runs)

    out_dir = os.path.join(HERE, ".steady")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "sets": sets}, fh)

    ok = True
    print("workload metric unit bound | median spread per set | worse | verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, medians, verdicts = [], [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[w]]
                medians.append(statistics.median(values))
                spread = _spread(values)
                if spread > bound:
                    verdicts.append("SPREAD")
                cols.append(f"{medians[-1]:.6g} {spread:.3f}{' wide' if spread > bound / 3 else ''}")
            change = _worse(medians[0], medians[1], metric["better"])
            if abs(change) > bound:
                verdicts.append("DRIFT")
            ok = ok and not verdicts
            verdict = " ".join(verdicts) or "ok"
            print(f"{w} {name} {metric['unit']} {bound} | {' | '.join(cols)} | {change:+.3f} | {verdict}")
    incorrect = sum(not r["correct"] for runs in sets for rs in runs.values() for r in rs)
    print(f"incorrect runs: {incorrect}; raw results in {os.path.relpath(path, ROOT)}")
    return 0 if ok and not incorrect else 1


if __name__ == "__main__":
    raise SystemExit(main())
