"""Golden-behaviour gate: `dualgp run` traces against the recorded ones.

Actions and observations (and the step column) must match the golden CSV
as text; every other column within RTOL relative with an ATOL floor for
round-off around zero, the rule perfbench/check.py applies to its
references. Tolerances rather than hashes: a harmless change in the order
of floating-point operations moves variances by ~1e-16 and no action.
The golden files change only with an intended behaviour change
(tests/golden/record.py).
"""

import csv
import io
import math

import pytest

from golden.record import CASES, golden_path, run_case

RTOL = 1e-9
ATOL = 1e-12
EXACT = ("step", "action", "observation")


def _close(got, want):
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL


@pytest.mark.parametrize("scenario,steps", CASES)
def test_trace_matches_golden(tmp_path, scenario, steps):
    code, text = run_case(scenario, steps, str(tmp_path))
    assert code == 0
    with open(golden_path(scenario, steps), encoding="utf-8", newline="") as fh:
        want = list(csv.reader(fh))
    got = list(csv.reader(io.StringIO(text)))
    assert got[0] == want[0]
    assert len(got) == len(want) == steps + 1
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for name, g, w in zip(want[0], g_row, w_row):
            where = f"row {line} {name}: {g} vs {w}"
            if name in EXACT:
                assert g == w, where
                continue
            g_vals, w_vals = g.split(";"), w.split(";")
            assert len(g_vals) == len(w_vals), where
            assert all(_close(float(a), float(b)) for a, b in zip(g_vals, w_vals)), where
