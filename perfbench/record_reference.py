"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record_reference.py [--workload NAME]

Runs each workload once for every pool seed (see workloads.POOL) and
writes perfbench/reference/<workload>.json.gz. The references are the
behaviour of the program when the benchmark was defined; re-record them
only in a change that alters behaviour on purpose and says so.
"""

import argparse
import gzip
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def record(name, out_dir):
    reference = {"episodes": {}}
    for pool_seed in range(workloads.POOL):
        workload = workloads.make(name, pool_seed)
        workload.build()
        out = workload.body(out_dir)
        if name == "info_select":
            reference.setdefault("selections", {})[str(pool_seed)] = [
                {"index": sel.index, "score": sel.score} for sel in out["selections"]
            ]
            continue
        for result in out["results"]:
            diff = check.dense_mismatch(result)
            if diff:
                raise SystemExit(f"{name} seed {result.config['seed']}: {diff}")
            trace_csv = check.written_trace(result.records, out_dir)
            reference["episodes"][str(result.config["seed"])] = check.episode_record(result, trace_csv)
        if name == "nonlinear_sweep":
            with open(out["path"], encoding="utf-8") as fh:
                reference.setdefault("sweeps", {})[str(pool_seed)] = fh.read()
            # the summary rows and the success rule must agree
            for row, result in zip(out["rows"], out["results"]):
                if bool(row[3]) != check.succeeded(result.config, result):
                    raise SystemExit(f"success rule disagrees with run_sweep on seed {row[0]}")
    if not reference["episodes"]:
        del reference["episodes"]
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    path = check.reference_path(name)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode("utf-8"))
    print(f"wrote {os.path.relpath(path, ROOT)} ({os.path.getsize(path)} bytes)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="record the benchmark's reference outputs")
    parser.add_argument("--workload", choices=workloads.NAMES)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as out_dir:
        for name in [args.workload] if args.workload else workloads.NAMES:
            record(name, out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
