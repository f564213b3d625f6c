"""Harness and CLI: episode plumbing, CSV contracts, determinism."""

import csv
import json
import logging
import math
import os

import numpy as np
import pytest

from dualgp import config, harness
from dualgp.cli import main
from dualgp.config import ConfigError, resolve_config
from dualgp.harness import (
    build_action_set,
    build_plant,
    compute_slice,
    run_scenario,
    run_sweep,
    summarize,
    training_set_hash,
    write_slice_csv,
    write_trace_csv,
)
from dualgp.plants import CartParams


# benchmark mode with actions so large the cart's state overflows at step 1
HUGE_ACTIONS = {"action_grid": {"min": 1e300, "max": 2e300, "step": 1e300}, "steps": 50}
# a reference whose square overflows, with every action's distance to it overflowing too
FAR_REFERENCE = {
    "selection": "benchmark", "target": [3e200], "steps": 1,
    "action_grid": {"min": 1e200, "max": 2e200, "step": 1e200},
}
# three copies of one transition: singular with no noise and no jitter
DUPLICATE_POINTS = {
    "kernel": {"jitter": 0.0, "signal_variance": 1.0},
    "initial_data": {"points": [[0.5, 0.0, 0.3]] * 3},
    "steps": 2,
}
# seed data whose GP targets are not finite: random draws whose true map
# overflows, and one explicit transition whose additive target y' - u overflows
NONFINITE_SEEDS = [
    {"scenario": "logistic_nonlinear", "initial_data": {"count": 3, "low": 0.0, "high": 1e200}},
    {"scenario": "logistic_linear", "initial_data": {"points": [[0.5, -1.7e308, 1.7e308]]}},
]
# random draws whose span high - low overflows Generator.uniform
OVERFLOWING_SPAN = {
    "scenario": "logistic_nonlinear",
    "initial_data": {"count": 3, "low": -1.7e308, "high": 1.7e308},
}
# every initial_data above that the run rejects, and the field it names
REJECTED_PRIOR_DATA = [
    ({"scenario": "logistic_linear", **DUPLICATE_POINTS}, "initial_data"),
    *[(raw, "initial_data") for raw in NONFINITE_SEEDS],
    (OVERFLOWING_SPAN, "initial_data.high"),
]

# one random draw whose true map overflows the GP's targets at some seeds
# only: the config's own seed draws a finite one, and the sweep's seed does not
SEED_DEPENDENT_PRIOR_DATA = [
    ({"scenario": "logistic_nonlinear", "steps": 20,
      "initial_data": {"count": 1, "low": 0, "high": 6e153}}, 4),
    ({"scenario": "logistic_nonlinear", "seed": 2, "steps": 20,
      "initial_data": {"count": 1, "low": 0, "high": 1e154}}, 0),
]



def cfg_for(scenario, **overrides):
    return resolve_config({"scenario": scenario, **overrides})


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestActionGrids:
    def test_scenario_grid_sizes(self):
        assert len(build_action_set(cfg_for("logistic_linear"))) == 101
        assert len(build_action_set(cfg_for("logistic_nonlinear"))) == 32
        assert len(build_action_set(cfg_for("cart_dual"))) == 21


class TestBuildPlant:
    def test_every_cart_constant_reaches_the_plant(self):
        constants = {
            "timestep": 0.02, "friction": 10.5, "cart_mass": 2.25,
            "arm_length": 0.4, "gravity": 9.81, "pendulum_mass": 0.125,
        }
        plant = build_plant(cfg_for("cart_dual", plant=constants))
        assert plant.params == CartParams(**constants)


class TestRunScenario:
    def test_logistic_linear_defaults(self):
        result = run_scenario(cfg_for("logistic_linear"))
        assert result.aborted is None
        assert len(result.records) == 100
        assert result.summary["final_tracking_error"] < 0.05
        assert result.summary["steps_to_within_10pct"] >= 0

    def test_benchmark_keeps_gp_empty(self):
        result = run_scenario(cfg_for("cart_benchmark", steps=5))
        assert len(result.io.gps[0].data) == 0

    def test_benchmark_reads_no_learning_fields(self):
        # the planner reads plant, x0, target, action_grid and steps only
        plain = run_scenario(cfg_for("cart_benchmark"))
        varied = run_scenario(cfg_for(
            "cart_benchmark", noise_variance=0.5, seed=3,
            kernel={"length_scale": 0.1}, weights={"w2_end": 0.0},
        ))
        assert len(plain.records) == len(varied.records) == 100
        for a, b in zip(plain.records, varied.records):
            assert np.array_equal(a.action, b.action)
            assert np.array_equal(a.observation, b.observation)
        assert plain.training_hash == varied.training_hash

    def test_abort_is_reported_not_raised(self):
        # without prior data the cosine-coupled map is lost quickly
        cfg = cfg_for("logistic_nonlinear", initial_data=None)
        result = run_scenario(cfg)
        assert result.aborted is not None
        assert "step" in result.aborted
        assert 0 < len(result.records) < cfg["steps"]

    def test_benchmark_divergence_is_reported_not_raised(self):
        result = run_scenario(cfg_for("cart_benchmark", **HUGE_ACTIONS))
        assert result.aborted.startswith("step 1: cart state is non-finite")
        assert [r.step for r in result.records] == [0]

    def test_unfactorizable_initial_data_is_a_config_error(self):
        with pytest.raises(ConfigError) as info:
            run_scenario(cfg_for("logistic_linear", **DUPLICATE_POINTS))
        assert info.value.field == "initial_data"
        assert "singular" in str(info.value)

    @pytest.mark.parametrize("raw", NONFINITE_SEEDS)
    def test_nonfinite_initial_data_is_a_config_error(self, raw):
        with pytest.raises(ConfigError) as info:
            run_scenario(resolve_config(raw))
        assert str(info.value) == "initial_data: targets contain non-finite values"

    @pytest.mark.parametrize("raw,field", REJECTED_PRIOR_DATA)
    def test_resolution_rejects_the_prior_data_the_run_rejects(self, raw, field):
        with pytest.raises(ConfigError) as info:
            resolve_config(raw)
        assert info.value.field == field

    def test_build_io_holds_the_seed_rows_the_run_trains_on(self):
        cfg = cfg_for("logistic_nonlinear", steps=1)
        seeded = config.build_io(cfg).gps[0].data
        trained = run_scenario(cfg).io.gps[0].data
        assert len(seeded) == 10
        assert seeded.inputs.tobytes() == trained.inputs[:10].tobytes()
        assert seeded.targets.tobytes() == trained.targets[:10].tobytes()

    def test_targets_near_the_float_maximum_abort_the_update(self):
        # step 11 stores y = -1.55e308 as a target; alpha overflowed, every mean
        # was NaN, argmin took u = 0 and the plant overflowed a step later
        cfg = cfg_for("logistic_nonlinear", seed=24, kernel={"length_scale": 0.25})
        result = run_scenario(cfg)
        assert result.aborted == "step 11: training targets overflow alpha = C^{-1} y"
        assert [r.step for r in result.records] == list(range(12))
        assert result.records[-1].observation[0] < -1e308

    def test_summary_stays_finite_after_abort(self):
        cfg = cfg_for("logistic_nonlinear", initial_data=None)
        result = run_scenario(cfg)
        assert math.isfinite(result.summary["final_tracking_error"])

    def test_summarize_with_no_records(self):
        cfg = cfg_for("logistic_linear")
        summary = summarize(cfg, [], None)
        assert summary["final_tracking_error"] == pytest.approx(0.7)
        assert summary["steps_to_within_10pct"] == -1

    def test_a_reference_above_the_range_of_its_square(self):
        # the step takes the action nearest r; its error overflows, and the summary
        # and the sweep report the recorded inf. With no step done the summary
        # reads |x0 - r|, where a norm's r * r overflowed (a RuntimeWarning here)
        cfg = cfg_for("logistic_linear", **FAR_REFERENCE)
        result = run_scenario(cfg)
        assert result.records[0].action[0] == 2e200
        assert result.records[0].objective_value == np.inf
        assert result.records[0].tracking_error == np.inf
        assert result.summary["final_tracking_error"] == np.inf
        assert summarize(cfg, [], None)["final_tracking_error"] == abs(0.1 - 3e200)
        assert run_sweep(cfg, 1) == [(0, np.inf, -1, 0)]

    def test_explicit_initial_points_enter_training_set(self):
        cfg = cfg_for(
            "logistic_linear",
            steps=1,
            initial_data={"points": [[0.1, 0.5, 0.4], [0.9, -0.2, 0.1]]},
        )
        result = run_scenario(cfg)
        assert len(result.io.gps[0].data) == 3  # 2 seeded + 1 step

    def test_random_initial_data_size_and_determinism(self):
        cfg = cfg_for("logistic_nonlinear", steps=1)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert len(a.io.gps[0].data) == 11  # 10 seeded + 1 step
        assert a.training_hash == b.training_hash

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_initial_data_is_the_true_map(self, seed):
        data = run_scenario(cfg_for("logistic_nonlinear", steps=1, seed=seed)).io.gps[0].data
        # black-box rows are (y, u); the first 10 are the seeded draws
        want = [3.8 * y * (1 - y) + np.cos(u) for y, u in data.inputs[:10]]
        assert np.array_equal(data.targets[:10], want)

    def test_random_initial_data_varies_with_seed(self):
        a = run_scenario(cfg_for("logistic_nonlinear", steps=1, seed=0))
        b = run_scenario(cfg_for("logistic_nonlinear", steps=1, seed=1))
        assert a.training_hash != b.training_hash

    def test_random_draws_seed_as_their_explicit_points(self, tmp_path):
        # both forms of initial_data go through one seeding loop
        drawn = run_scenario(cfg_for("logistic_nonlinear", steps=30, seed=3))
        data = drawn.io.gps[0].data
        points = np.hstack([data.inputs[:10], data.targets[:10, None]]).tolist()
        given = run_scenario(cfg_for("logistic_nonlinear", steps=30, seed=3,
                                     initial_data={"points": points}))
        assert given.training_hash == drawn.training_hash
        for name, result in (("drawn", drawn), ("given", given)):
            write_trace_csv(tmp_path / f"{name}.csv", result.records)
        assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "drawn.csv").read_bytes()


class TestSlice:
    def test_run_and_slice_rebuild_identical_gp(self):
        cfg = cfg_for("logistic_linear")
        direct = run_scenario(cfg)
        rerun, rows = compute_slice(cfg, 0.0, 0, 0.0, 1.0, 11)
        assert direct.training_hash == rerun.training_hash
        assert len(rows) == 11

    def test_true_column_is_plant_map(self):
        cfg = cfg_for("logistic_linear", steps=1)
        _, rows = compute_slice(cfg, 0.0, 0, 0.0, 1.0, 5)
        for x, true_value, _, _ in rows:
            assert true_value == pytest.approx(3.5 * x * (1 - x), abs=1e-12)

    def test_empty_gp_slice_prior(self):
        # the full-knowledge planner never trains the GP, so the slice
        # shows the prior: zero mean, sqrt(a + sigma) spread
        cfg = cfg_for("logistic_linear", selection="benchmark", steps=2)
        _, rows = compute_slice(cfg, 0.0, 0, 0.0, 1.0, 4)
        for _, _, mean, std in rows:
            assert mean == pytest.approx(0.0, abs=1e-15)
            assert std == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_two_point_grid(self):
        cfg = cfg_for("logistic_linear", steps=1)
        _, rows = compute_slice(cfg, 0.0, 0, 0.2, 0.7, 2)
        assert [r[0] for r in rows] == [0.2, 0.7]

    def test_std_dips_near_target_after_run(self):
        cfg = cfg_for("logistic_linear")
        _, rows = compute_slice(cfg, 0.0, 0, 0.0, 1.0, 101)
        stds = np.array([r[3] for r in rows])
        x_min = rows[int(np.argmin(stds))][0]
        assert abs(x_min - 0.8) <= 0.15

    def test_cart_velocity_slice(self):
        cfg = cfg_for("cart_dual", steps=5)
        _, rows = compute_slice(cfg, 2.0, 1, -1.0, 1.0, 7)
        assert len(rows) == 7
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_slice_validation(self):
        cfg = cfg_for("logistic_linear", steps=1)
        with pytest.raises(ConfigError, match="slice.n"):
            compute_slice(cfg, 0.0, 0, 0.0, 1.0, 1)
        with pytest.raises(ConfigError, match="slice.coord"):
            compute_slice(cfg, 0.0, 1, 0.0, 1.0, 5)
        with pytest.raises(ConfigError, match="slice.max"):
            compute_slice(cfg, 0.0, 0, 1.0, 0.0, 5)
        with pytest.raises(ConfigError, match="slice.at_u"):
            compute_slice(cfg, math.nan, 0, 0.0, 1.0, 5)

    @pytest.mark.parametrize("lo,hi,field", [
        (-math.inf, 1.0, "slice.min"),
        (0.0, math.nan, "slice.max"),
        (-1e308, 1e308, "slice.max"),  # finite bounds whose span overflows
    ])
    def test_slice_bounds_and_span_must_be_finite(self, lo, hi, field):
        cfg = cfg_for("logistic_linear", steps=1)
        with pytest.raises(ConfigError) as info:
            compute_slice(cfg, 0.0, 0, lo, hi, 5)
        assert info.value.field == field


class TestCsvOutput:
    def test_trace_layout(self, tmp_path):
        result = run_scenario(cfg_for("logistic_linear", steps=4))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.records)
        rows = read_csv(path)
        assert rows[0] == [
            "step", "action", "observation", "reference", "predicted_mean",
            "predicted_variance", "objective", "tracking_error", "estimation_error",
        ]
        assert len(rows) == 5
        for row in rows[1:]:
            for cell in row:
                for part in cell.split(";"):
                    assert math.isfinite(float(part))

    def test_vector_cells_semicolon_joined(self, tmp_path):
        result = run_scenario(cfg_for("cart_dual", steps=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.records)
        rows = read_csv(path)
        obs = rows[1][2]
        assert ";" in obs and len(obs.split(";")) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = cfg_for("cart_dual", steps=30)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_trace_csv(path, run_scenario(cfg).records)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_temp_droppings(self, tmp_path):
        write_slice_csv(tmp_path / "s.csv", [(0.0, 1.0, 2.0, 3.0)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


class TestSweep:
    def test_single_seed_matches_run(self):
        cfg = cfg_for("logistic_linear")
        rows = run_sweep(cfg, 1)
        direct = run_scenario(cfg)
        assert rows[0][0] == 0
        assert rows[0][1] == pytest.approx(direct.summary["final_tracking_error"])
        assert rows[0][3] == 1

    def test_rerun_identical(self):
        cfg = cfg_for("logistic_linear", steps=30)
        assert run_sweep(cfg, 2) == run_sweep(cfg, 2)

    def test_aborted_seed_flagged(self):
        cfg = cfg_for("logistic_nonlinear", initial_data=None)
        rows = run_sweep(cfg, 1)
        assert rows[0][3] == 0
        assert math.isfinite(rows[0][1])

    def test_seed_count_validated(self):
        with pytest.raises(ConfigError, match="sweep.seeds"):
            run_sweep(cfg_for("logistic_linear"), 0)

    @pytest.mark.parametrize("raw,seed", SEED_DEPENDENT_PRIOR_DATA)
    def test_every_seed_is_resolved_before_the_first_episode(self, monkeypatch, raw, seed):
        cfg = resolve_config(raw)
        runs = []
        run = harness.run_scenario
        monkeypatch.setattr(harness, "run_scenario", lambda c: runs.append(c) or run(c))
        with pytest.raises(ConfigError, match=rf"^sweep\.seeds: seed {seed}: initial_data: ") as exc:
            run_sweep(cfg, 10)
        assert exc.value.field == "sweep.seeds"
        assert runs == []

    def test_each_seed_runs_once_through_the_module_level_run_scenario(self, monkeypatch):
        seeds = []
        run = harness.run_scenario
        monkeypatch.setattr(harness, "run_scenario", lambda c: seeds.append(c["seed"]) or run(c))
        rows = run_sweep(cfg_for("logistic_linear", steps=10, seed=7), 3)
        assert seeds == [0, 1, 2]
        assert [row[0] for row in rows] == [0, 1, 2]

    def test_rows_are_the_run_summaries(self):
        cfg = cfg_for("logistic_nonlinear", steps=40)
        rows = run_sweep(cfg, 3)
        for seed, row in enumerate(rows):
            s = run_scenario({**cfg, "seed": seed}).summary
            keys = ("final_tracking_error", "steps_to_within_10pct", "success")
            assert row == (seed, *(s[k] for k in keys))


class TestSuccess:
    """summarize's success key: completed, final-quarter mean error within |r| / 4."""

    def test_completed_within_the_bound(self):
        result = run_scenario(cfg_for("logistic_linear", steps=40))
        tail = [r.tracking_error for r in result.records[-10:]]
        assert result.aborted is None and np.mean(tail) <= 0.25 * 0.8
        assert result.summary["success"] == 1

    def test_an_aborted_run_with_records_fails(self):
        cfg = cfg_for("logistic_nonlinear", initial_data=None)
        result = run_scenario(cfg)
        assert result.aborted is not None and result.records
        assert result.summary["success"] == 0

    def test_an_abort_message_alone_fails_a_run(self):
        cfg = cfg_for("logistic_linear", steps=40)
        records = run_scenario(cfg).records
        assert summarize(cfg, records, None)["success"] == 1
        assert summarize(cfg, records, "step 40: plant diverged")["success"] == 0

    def test_no_records_fail(self):
        cfg = cfg_for("logistic_linear")
        assert summarize(cfg, [], None)["success"] == 0
        assert summarize(cfg, [], "step 0: diverged")["success"] == 0

    def test_an_infinite_error_fails(self):
        result = run_scenario(cfg_for("logistic_linear", **FAR_REFERENCE))
        assert result.aborted is None
        assert result.records[-1].tracking_error == np.inf
        assert result.summary["success"] == 0


class TestTrainingHash:
    def test_sensitive_to_data(self):
        a = run_scenario(cfg_for("logistic_linear", steps=2))
        b = run_scenario(cfg_for("logistic_linear", steps=3))
        assert a.training_hash != b.training_hash

    def test_stable_across_calls(self):
        result = run_scenario(cfg_for("logistic_linear", steps=2))
        assert training_set_hash(result.io) == result.training_hash


class TestCli:
    def write_cfg(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_run_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", "steps": 5})
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 0
        assert len(read_csv(out)) == 6
        stdout = capsys.readouterr().out
        assert "final_tracking_error=" in stdout
        assert "steps_to_within_10pct=" in stdout

    @pytest.mark.parametrize("argv", [
        ["run"],  # missing config
        ["run", "cfg.json", "--bogus"],
        ["sweep", "cfg.json", "--seeds", "x"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        # exit 2 means an aborted episode, so a usage error must not use it
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "usage: dualgp" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert "usage: dualgp" in capsys.readouterr().out

    def test_run_exit_2_on_divergence(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path, {"scenario": "logistic_nonlinear", "initial_data": None}
        )
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 2
        assert os.path.exists(out)  # partial trace still lands

    def test_run_exit_2_on_benchmark_divergence(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "cart_benchmark", **HUGE_ACTIONS})
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 2
        assert len(read_csv(out)) == 2  # header and the one completed step
        assert "aborted: step 1:" in capsys.readouterr().err

    def test_run_exit_2_on_overflowing_objective(self, tmp_path, capsys):
        # the learner's tracking distance of a 1e300 action overflows its
        # square; that is an inf objective, not a RuntimeWarning
        cfg = self.write_cfg(
            tmp_path, {"scenario": "logistic_linear", **HUGE_ACTIONS, "steps": 5}
        )
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 2
        assert read_csv(out)[1][6] == "inf"
        assert "aborted: step 1:" in capsys.readouterr().err

    def test_run_exit_1_on_nonfinite_initial_data(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, NONFINITE_SEEDS[1])
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: initial_data: targets contain non-finite values" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_run_exit_1_on_unfactorizable_initial_data(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", **DUPLICATE_POINTS})
        out = str(tmp_path / "trace.csv")
        assert main(["run", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: initial_data:" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("raw,field", REJECTED_PRIOR_DATA)
    def test_validate_exit_1_on_prior_data_the_run_rejects(self, tmp_path, capsys, raw, field):
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["validate", cfg]) == 1
        validated = capsys.readouterr()
        assert main(["run", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert validated.out == ""
        assert validated.err.startswith(f"config error: {field}: ")
        assert validated.err == capsys.readouterr().err

    def test_validate_prints_resolved_config(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "cart_dual", "steps": 11})
        assert main(["validate", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["steps"] == 11
        assert resolved["kernel"]["length_scale"] == 20.0

    def test_validate_exit_1_names_field(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path, {"scenario": "cart_dual", "action_grid": {"step": 0}}
        )
        assert main(["validate", cfg]) == 1
        assert "action_grid.step" in capsys.readouterr().err

    def test_validate_exit_1_on_a_grid_run_cannot_build(self, tmp_path, capsys):
        grid = {"min": 0, "max": 1, "step": 1e-300}
        raw = {"scenario": "logistic_linear", "steps": 1, "action_grid": grid}
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["validate", cfg]) == 1
        assert main(["run", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error: action_grid.step: (max - min) / step must be < 1000000" in err
        assert "Traceback" not in err

    def test_validate_exit_1_on_a_length_scale_without_a_finite_square(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", "kernel": {"length_scale": 1e155}})
        assert main(["validate", cfg]) == 1
        err = capsys.readouterr().err
        assert ("config error: kernel.length_scale: length_scale must be > 0 "
                "with a finite, nonzero square, got 1e+155") in err
        assert "Traceback" not in err

    def test_validate_exit_1_on_a_length_scale_whose_square_is_zero(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", "kernel": {"length_scale": 1e-170}})
        assert main(["validate", cfg]) == 1
        err = capsys.readouterr().err
        assert ("config error: kernel.length_scale: length_scale must be > 0 "
                "with a finite, nonzero square, got 1e-170") in err
        assert "Traceback" not in err

    def test_validate_exit_1_on_lookahead(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "cart_benchmark", "lookahead": 1})
        assert main(["validate", cfg]) == 1
        assert "config error: lookahead: unknown field" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("make", ["not_utf8", "directory"])
    def test_unreadable_config_exit_1(self, tmp_path, capsys, make):
        path = tmp_path / "cfg.json"
        if make == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"scenario": "cart_dual", "note": "\xe9"}')
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error: <config>:" in err
        assert "Traceback" not in err

    def test_integer_spellings_resolve_to_floats(self, tmp_path, capsys):
        spellings = {
            "int": {"kernel": {"length_scale": 20}, "action_grid": {"step": 1}},
            "float": {"kernel": {"length_scale": 20.0}, "action_grid": {"step": 1.0}},
        }
        texts = {}
        for name, fields in spellings.items():
            cfg = self.write_cfg(tmp_path, {"scenario": "cart_dual", "steps": 30, **fields})
            assert main(["validate", cfg]) == 0
            resolved = json.loads(capsys.readouterr().out)
            assert isinstance(resolved["kernel"]["length_scale"], float)
            assert isinstance(resolved["action_grid"]["step"], float)
            out = tmp_path / f"{name}.csv"
            assert main(["run", cfg, "--out", str(out)]) == 0
            capsys.readouterr()
            texts[name] = out.read_bytes()
        assert texts["int"] == texts["float"]

    def test_slice_command(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", "steps": 3})
        out = str(tmp_path / "slice.csv")
        code = main([
            "slice", cfg, "--at-u", "0", "--min", "0", "--max", "1", "--n", "4",
            "--out", out,
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "true_value", "mean", "std"]
        assert len(rows) == 5

    @pytest.mark.parametrize("raw,seed", SEED_DEPENDENT_PRIOR_DATA)
    def test_sweep_names_the_seed_validate_does_not_draw(self, tmp_path, capsys, raw, seed):
        # validate draws the prior data of the config's own seed, which seeds;
        # the sweep draws it for each of its seeds before any episode runs
        cfg = self.write_cfg(tmp_path, raw)
        out = tmp_path / "summary.csv"
        assert main(["validate", cfg]) == 0
        capsys.readouterr()
        assert main(["sweep", cfg, "--seeds", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: sweep.seeds: seed {seed}: initial_data: " in err
        assert not out.exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"scenario": "logistic_linear", "steps": 20})
        out = str(tmp_path / "summary.csv")
        assert main(["sweep", cfg, "--seeds", "2", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["seed", "final_tracking_error", "steps_to_within_10pct", "success"]
        assert len(rows) == 3
        assert "success_fraction=" in capsys.readouterr().out


class TestLogging:
    @pytest.mark.parametrize(
        "value,level",
        [("quiet", logging.ERROR), ("info", logging.INFO), ("debug", logging.DEBUG)],
    )
    def test_env_levels(self, monkeypatch, value, level):
        from dualgp.cli import _setup_logging

        monkeypatch.setenv("DUALGP_LOG", value)
        _setup_logging()
        assert logging.getLogger("dualgp").level == level

    def test_unknown_value_falls_back_to_info(self, monkeypatch):
        from dualgp.cli import _setup_logging

        monkeypatch.setenv("DUALGP_LOG", "chatty")
        _setup_logging()
        assert logging.getLogger("dualgp").level == logging.INFO
