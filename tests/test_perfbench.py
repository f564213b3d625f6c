"""Smoke test of the benchmark's checker and tracer against the package.

perfbench/ calls into dualgp through names a change can delete or rename;
this runs its workload, checker and tracer modules, unedited, on small
passes so such a break shows in the test suite and not only in a bench run.
"""

import importlib.util
import os

import pytest

from dualgp import harness
from dualgp.config import resolve_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    """perfbench/<name>.py as a module of its own, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", f"{PERFBENCH}/{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check, tracing, workloads = load("check"), load("tracing"), load("workloads")


def check_a_pass(name, seed, tmp_path):
    workload = workloads.make(name, seed)
    workload.build()
    checker = check.Checker(workload, str(tmp_path))
    checker.check(workload.body(str(tmp_path)), dense=True)
    assert checker.attempted > 0
    assert (checker.failed, checker.messages) == (0, [])


@pytest.mark.parametrize("name", ["info_select", "logistic_long", "cart_long", "nonlinear_sweep"])
def test_a_pass_matches_its_reference(name, tmp_path):
    check_a_pass(name, 0, tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_info_select_seed_matches_its_reference(seed, tmp_path):
    # the reference records selections for pool seeds 0-4; each builds four 200-point models
    check_a_pass("info_select", seed, tmp_path)


def test_the_tracer_installs_and_uninstalls():
    original = harness.run_scenario
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.run_scenario is not original
        harness.run_scenario(resolve_config({"scenario": "cart_dual", "steps": 20}))
    finally:
        tracer.uninstall()
    assert harness.run_scenario is original
    metrics = tracer.layer_metrics()
    assert metrics["control.select_action.calls"] == (20, "count")
    assert metrics["gp.with_observation.calls"] == (20, "count")


def test_stamping_records_one_list_per_episode():
    # the drawing plant of the seed rows is built by config.build_plant,
    # so only the episode's own plant is stamped
    with workloads.Stamping() as stamping:
        harness.run_scenario(resolve_config({"scenario": "logistic_nonlinear", "steps": 30}))
    assert [len(stamps) for stamps in stamping.episodes] == [30]
