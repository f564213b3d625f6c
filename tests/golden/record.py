"""Record the golden traces that tests/test_golden.py compares against.

Each case runs ``dualgp run`` on ``{"scenario": ..., "steps": ...}`` and
keeps the trace CSV as ``<scenario>_<steps>.csv`` next to this file.
Re-record only for an intended behaviour change, and say why in the
change that commits the new files:

    PYTHONPATH=src python3 tests/golden/record.py
"""

import json
import os
import sys
import tempfile

from dualgp import cli

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

CASES = [
    ("logistic_linear", 100),
    ("logistic_nonlinear", 100),
    ("cart_dual", 100),
    ("cart_benchmark", 100),
    ("logistic_linear", 400),
    ("logistic_nonlinear", 400),
    ("cart_dual", 400),
]


def golden_path(scenario, steps):
    return os.path.join(GOLDEN_DIR, f"{scenario}_{steps}.csv")


def run_case(scenario, steps, out_dir):
    """Run one case through the CLI; return (exit code, trace CSV text)."""
    cfg_path = os.path.join(out_dir, f"{scenario}_{steps}.json")
    out_path = os.path.join(out_dir, f"{scenario}_{steps}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"scenario": scenario, "steps": steps}, fh)
    code = cli.main(["run", cfg_path, "--out", out_path])
    with open(out_path, encoding="utf-8", newline="") as fh:
        return code, fh.read()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, steps in CASES:
            code, text = run_case(scenario, steps, tmp)
            if code != 0:
                print(f"{scenario} {steps}: exit code {code}", file=sys.stderr)
                return 1
            with open(golden_path(scenario, steps), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
