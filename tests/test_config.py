"""Config resolution: defaults snapshot, merging, per-field diagnostics."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualgp.config import (
    ConfigError,
    SCENARIOS,
    load_config,
    resolve_config,
    scenario_defaults,
)
from dualgp.control import ActionSet, Weights
from dualgp.gp import KernelConfig
from dualgp.harness import build_action_set, build_io, build_plant
from dualgp.plants import LogisticPlant

# checked-in snapshot of every scenario's fully resolved defaults; a
# deliberate change here is a behavior change for every consumer
EXPECTED_DEFAULTS = {
    "logistic_linear": {
        "scenario": "logistic_linear",
        "plant": {"kind": "logistic", "r_param": 3.5, "coupling": "additive"},
        "x0": [0.1],
        "target": [0.8],
        "action_grid": {"min": -1.0, "max": 1.0, "step": 0.02},
        "kernel": {"signal_variance": 0.5, "length_scale": 1.0, "jitter": 1e-09},
        "noise_variance": 0.0,
        "weights": {"w1": 1.0, "w2_start": 1.0, "w2_end": 1.0, "schedule_steps": 0},
        "steps": 100,
        "seed": 0,
        "selection": "dual",
        "initial_data": None,
    },
    "logistic_nonlinear": {
        "scenario": "logistic_nonlinear",
        "plant": {"kind": "logistic", "r_param": 3.8, "coupling": "cosine"},
        "x0": [0.1],
        "target": [0.8],
        "action_grid": {"min": 0.0, "max": 3.141592653589793, "step": 0.1},
        "kernel": {"signal_variance": 0.5, "length_scale": 1.0, "jitter": 1e-09},
        "noise_variance": 0.0,
        "weights": {"w1": 1.0, "w2_start": 0.0, "w2_end": 40.0, "schedule_steps": 100},
        "steps": 100,
        "seed": 0,
        "selection": "dual",
        "initial_data": {"count": 10, "low": 0.0, "high": 1.2},
    },
    "cart_dual": {
        "scenario": "cart_dual",
        "plant": {
            "kind": "cart",
            "timestep": 0.05,
            "friction": 12.98,
            "cart_mass": 1.378,
            "arm_length": 0.325,
            "gravity": 9.8,
            "pendulum_mass": 0.051,
        },
        "x0": [0.0, 0.0, 0.6, 0.0],
        "target": [0.5],
        "action_grid": {"min": -10.0, "max": 10.0, "step": 1.0},
        "kernel": {"signal_variance": 0.5, "length_scale": 20.0, "jitter": 1e-09},
        "noise_variance": 0.01,
        "weights": {"w1": 1.0, "w2_start": 20.0, "w2_end": 20.0, "schedule_steps": 0},
        "steps": 100,
        "seed": 0,
        "selection": "dual",
        "initial_data": None,
    },
    "cart_benchmark": {
        "scenario": "cart_benchmark",
        "plant": {
            "kind": "cart",
            "timestep": 0.05,
            "friction": 12.98,
            "cart_mass": 1.378,
            "arm_length": 0.325,
            "gravity": 9.8,
            "pendulum_mass": 0.051,
        },
        "x0": [0.0, 0.0, 0.6, 0.0],
        "target": [0.5],
        "action_grid": {"min": -10.0, "max": 10.0, "step": 1.0},
        "kernel": {"signal_variance": 0.5, "length_scale": 20.0, "jitter": 1e-09},
        "noise_variance": 0.0,
        "weights": {"w1": 1.0, "w2_start": 20.0, "w2_end": 20.0, "schedule_steps": 0},
        "steps": 100,
        "seed": 0,
        "selection": "benchmark",
        "initial_data": None,
    },
}


class TestDefaults:
    def test_scenario_list(self):
        assert set(SCENARIOS) == set(EXPECTED_DEFAULTS)

    @pytest.mark.parametrize("scenario", sorted(EXPECTED_DEFAULTS))
    def test_resolved_defaults_snapshot(self, scenario):
        assert resolve_config({"scenario": scenario}) == EXPECTED_DEFAULTS[scenario]

    def test_defaults_copy_is_private(self):
        one = scenario_defaults("cart_dual")
        one["kernel"]["length_scale"] = 999
        assert scenario_defaults("cart_dual")["kernel"]["length_scale"] == 20.0

    def test_nonlinear_pi_grid_count(self):
        g = EXPECTED_DEFAULTS["logistic_nonlinear"]["action_grid"]
        count = int(math.floor((g["max"] - g["min"]) / g["step"] + 1e-9)) + 1
        assert count == 32


class TestMerging:
    def test_scalar_override(self):
        cfg = resolve_config({"scenario": "logistic_linear", "steps": 7, "seed": 3})
        assert cfg["steps"] == 7
        assert cfg["seed"] == 3

    def test_nested_partial_override_keeps_siblings(self):
        cfg = resolve_config({"scenario": "logistic_linear", "plant": {"r_param": 3.8}})
        assert cfg["plant"]["r_param"] == 3.8
        assert cfg["plant"]["coupling"] == "additive"

    def test_scalar_x0_promoted(self):
        cfg = resolve_config({"scenario": "logistic_linear", "x0": 0.3})
        assert cfg["x0"] == [0.3]

    def test_initial_data_replaced_wholesale(self):
        cfg = resolve_config({"scenario": "logistic_nonlinear", "initial_data": None})
        assert cfg["initial_data"] is None
        cfg = resolve_config(
            {"scenario": "logistic_nonlinear", "initial_data": {"count": 4, "low": 0.0, "high": 1.0}}
        )
        assert cfg["initial_data"] == {"count": 4, "low": 0.0, "high": 1.0}


class TestFieldErrors:
    def field_of(self, raw):
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        return err.value.field

    def test_missing_scenario(self):
        assert self.field_of({}) == "scenario"

    def test_unknown_scenario(self):
        assert self.field_of({"scenario": "pendulum"}) == "scenario"

    def test_unknown_top_level_field(self):
        assert self.field_of({"scenario": "cart_dual", "bogus": 1}) == "bogus"

    def test_unknown_nested_field(self):
        field = self.field_of({"scenario": "cart_dual", "kernel": {"scale": 2}})
        assert field == "kernel.scale"

    def test_zero_grid_step(self):
        field = self.field_of({"scenario": "logistic_linear", "action_grid": {"step": 0}})
        assert field == "action_grid.step"

    @pytest.mark.parametrize("grid", [
        {"min": 0.0, "max": 1.0, "step": 1e-300},
        {"min": -1e300, "max": 1e300, "step": 1e-300},
        {"min": -1.7e308, "max": 1.7e308, "step": 1.0},  # the span overflows to inf
        {"min": 0.0, "max": 1e6, "step": 1.0},
    ])
    def test_oversized_grid(self, grid):
        # the grid is only checked here, never built
        field = self.field_of({"scenario": "logistic_linear", "action_grid": grid})
        assert field == "action_grid.step"

    def test_largest_grid_resolves(self):
        grid = {"min": 0.0, "max": 999999.0, "step": 1.0}
        cfg = resolve_config({"scenario": "logistic_linear", "action_grid": grid})
        assert cfg["action_grid"] == grid

    def test_inverted_grid(self):
        field = self.field_of(
            {"scenario": "logistic_linear", "action_grid": {"min": 2.0, "max": 1.0}}
        )
        assert field == "action_grid.max"

    def test_negative_kernel_variance(self):
        field = self.field_of(
            {"scenario": "logistic_linear", "kernel": {"signal_variance": -0.5}}
        )
        assert field == "kernel.signal_variance"

    @pytest.mark.parametrize("scale", [1.35e154, 1e155])
    def test_length_scale_square_must_be_finite(self, scale):
        raw = {"scenario": "logistic_linear", "kernel": {"length_scale": scale}}
        assert self.field_of(raw) == "kernel.length_scale"
        raw["kernel"]["length_scale"] = 1.34e154
        assert resolve_config(raw)["kernel"]["length_scale"] == 1.34e154

    @pytest.mark.parametrize("scale", [1e-170, 1.5e-162])
    def test_length_scale_square_must_be_nonzero(self, scale):
        # the kernel divided by a square of 0 and read NaN at zero distance
        raw = {"scenario": "logistic_linear", "kernel": {"length_scale": scale}}
        with pytest.raises(ConfigError, match=r"^kernel\.length_scale: length_scale must be > 0 "
                           r"with a finite, nonzero square, got "):
            resolve_config(raw)
        assert self.field_of(raw) == "kernel.length_scale"
        raw["kernel"]["length_scale"] = 1.6e-162
        assert resolve_config(raw)["kernel"]["length_scale"] == 1.6e-162

    def test_cosine_wrong_r(self):
        field = self.field_of({"scenario": "logistic_nonlinear", "plant": {"r_param": 3.5}})
        assert field == "plant.r_param"

    def test_plant_kind_locked(self):
        field = self.field_of({"scenario": "cart_dual", "plant": {"kind": "logistic"}})
        assert field == "plant.kind"

    def test_cart_x0_length(self):
        field = self.field_of({"scenario": "cart_dual", "x0": [0.0, 0.0]})
        assert field == "x0"

    def test_degenerate_weights(self):
        field = self.field_of(
            {"scenario": "logistic_linear", "weights": {"w1": 0.0, "w2_start": 0.0, "w2_end": 0.0}}
        )
        assert field == "weights.w1"

    def test_zero_steps(self):
        assert self.field_of({"scenario": "cart_dual", "steps": 0}) == "steps"

    def test_bool_is_not_an_integer(self):
        assert self.field_of({"scenario": "cart_dual", "steps": True}) == "steps"

    def test_bad_selection(self):
        assert self.field_of({"scenario": "cart_dual", "selection": "greedy"}) == "selection"

    def test_lookahead_is_an_unknown_field(self):
        # the planner simulates one step ahead; no scenario has a lookahead setting
        with pytest.raises(ConfigError) as err:
            resolve_config({"scenario": "cart_benchmark", "lookahead": 1})
        assert err.value.field == "lookahead"
        assert str(err.value) == "lookahead: unknown field"

    def test_nonfinite_target(self):
        assert self.field_of({"scenario": "cart_dual", "target": [math.inf]}) == "target"

    @pytest.mark.parametrize(
        "raw,field",
        [
            ({"scenario": ["x"]}, "scenario"),
            ({"scenario": "cart_dual", "kernel": {"jitter": 10**400}}, "kernel.jitter"),
            ({"scenario": "cart_dual", "x0": [0, 0, 0, -(10**400)]}, "x0"),
            (
                {"scenario": "logistic_nonlinear",
                 "initial_data": {"count": 3, "low": 0, "high": 10**400}},
                "initial_data.high",
            ),
            (
                {"scenario": "logistic_linear", "initial_data": {"points": [[0, 0, 10**400]]}},
                "initial_data.points[0]",
            ),
            ({"scenario": "logistic_nonlinear", "initial_data": {"count": 3}}, "initial_data.low"),
        ],
    )
    def test_malformed_value_is_a_config_error(self, raw, field):
        # unhashable, beyond float range, or missing: each used to escape as a
        # TypeError, OverflowError or KeyError
        assert self.field_of(raw) == field


# every bounded field as (minimum, exclusive), stated here independently of config.py
BOUNDS = {
    "plant.r_param": (0.0, True),
    "plant.timestep": (0.0, True),
    "plant.friction": (0.0, True),
    "plant.cart_mass": (0.0, True),
    "plant.arm_length": (0.0, True),
    "plant.gravity": (0.0, True),
    "plant.pendulum_mass": (0.0, True),
    "action_grid.step": (0.0, True),
    "kernel.signal_variance": (0.0, True),
    "kernel.length_scale": (0.0, True),
    "kernel.jitter": (0.0, False),
    "noise_variance": (0.0, False),
    "weights.w1": (0.0, False),
    "weights.w2_start": (0.0, False),
    "weights.w2_end": (0.0, False),
    "weights.schedule_steps": (0, False),
    "steps": (1, False),
    "seed": (0, False),
    "initial_data.count": (1, False),
}


def _with_value(field, value):
    """A config setting one dotted field, in a scenario that has that field."""
    if field == "initial_data.count":
        block = {"count": value, "low": 0.0, "high": 1.0}
        return {"scenario": "logistic_nonlinear", "initial_data": block}
    scenario = "logistic_linear"
    if field.startswith("plant.") and field != "plant.r_param":
        scenario = "cart_dual"
    raw = {"scenario": scenario}
    *parents, leaf = field.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return raw


def _resolved(cfg, field):
    for key in field.split("."):
        cfg = cfg[key]
    return cfg


class TestBounds:
    @pytest.mark.parametrize("field", sorted(BOUNDS))
    def test_minimum(self, field):
        minimum, exclusive = BOUNDS[field]
        below = [_with_value(field, minimum - 1)]
        if exclusive:
            below.append(_with_value(field, minimum))
        else:
            assert _resolved(resolve_config(_with_value(field, minimum)), field) == minimum
        for raw in below:
            with pytest.raises(ConfigError) as err:
                resolve_config(raw)
            assert err.value.field == field


@st.composite
def grids_near_a_bound(draw):
    """(min, max, step) near 10**6 intervals, or with a span near the float maximum."""
    if draw(st.booleans()):
        step = draw(st.floats(1e-3, 1e3))
        return 0.0, step * draw(st.integers(999_990, 1_000_010)), step
    half = draw(st.floats(8.9e307, 9.0e307))  # the span overflows above about 8.99e307
    return -half, half, 1e303


class TestOneHomePerRule:
    """A cross-field rule is stated once, by the object that owns it.

    For values that pass every per-field bound, resolve_config raises
    exactly when the owner does, under one field and with the owner's message.
    """

    def check(self, raw, field, build):
        try:
            build()
        except ValueError as exc:
            with pytest.raises(ConfigError) as err:
                resolve_config(raw)
            assert (err.value.field, str(err.value)) == (field, f"{field}: {exc}")
        else:
            resolve_config(raw)

    @settings(max_examples=100)
    @given(st.floats(3.79, 3.81))
    @example(3.8)
    @example(3.5)
    def test_cosine_r(self, r):
        raw = {"scenario": "logistic_nonlinear", "plant": {"r_param": r}}
        self.check(raw, "plant.r_param", lambda: LogisticPlant(r, "cosine"))

    @settings(max_examples=30)
    @given(grids_near_a_bound())
    @example((0.0, 999_999.0, 1.0))
    @example((0.0, 1e6, 1.0))
    @example((-1.7e308, 1.7e308, 1.0))
    def test_action_grid(self, grid):
        raw = {"scenario": "logistic_linear", "action_grid": dict(zip(("min", "max", "step"), grid))}
        self.check(raw, "action_grid.step", lambda: ActionSet.from_grid(*grid))

    @settings(max_examples=100)
    @given(st.one_of(st.floats(1e-162, 2e-162), st.floats(1.33e154, 1.35e154)))
    @example(1.6e-162)
    @example(1.5e-162)
    @example(1.34e154)
    @example(1.35e154)
    def test_length_scale(self, scale):
        raw = {"scenario": "logistic_linear", "kernel": {"length_scale": scale}}
        self.check(raw, "kernel.length_scale", lambda: KernelConfig(0.5, scale, 1e-9))

    @settings(max_examples=100)
    @given(*[st.sampled_from([0.0, 5e-324, 1.0, 1e308])] * 3)
    @example(0.0, 0.0, 1.0)
    @example(0.0, 1.0, 1.0)
    def test_weights(self, w1, w2_start, w2_end):
        weights = {"w1": w1, "w2_start": w2_start, "w2_end": w2_end}
        raw = {"scenario": "logistic_linear", "weights": weights}
        self.check(raw, "weights.w1", lambda: Weights(w1, w2_start, w2_end))


# a per-field bound (0, the smallest subnormal), a cross-field rule (the
# cosine r, a length scale whose square under- or overflows), the float
# maximum, or any positive float
NEAR_BOUNDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-162, 1.0, LogisticPlant.COSINE_R, 1.4e154, 1.7e308]),
    st.floats(5e-324, 1.7e308),
)


@st.composite
def configs_near_the_bounds(draw):
    """A scenario with some plant, grid, kernel, weight, noise and x0 fields near a bound."""
    scenario = draw(st.sampled_from(SCENARIOS))
    defaults = scenario_defaults(scenario)
    raw = {"scenario": scenario}
    for block in ("plant", "action_grid", "kernel", "weights"):
        raw[block] = {
            key: draw(st.integers(-1, 3) if isinstance(value, int) else NEAR_BOUNDS)
            for key, value in defaults[block].items()
            if not isinstance(value, str) and draw(st.booleans())
        }
    if draw(st.booleans()):
        raw["action_grid"] = dict(zip(("min", "max", "step"), draw(grids_near_a_bound())))
    if defaults["plant"]["kind"] == "logistic":
        raw["plant"]["coupling"] = draw(st.sampled_from(["additive", "cosine"]))
    if draw(st.booleans()):
        raw["noise_variance"] = draw(NEAR_BOUNDS)
    if draw(st.booleans()):
        raw["x0"] = [draw(st.floats(-1.7e308, 1.7e308)) for _ in defaults["x0"]]
    return raw


class TestResolvedConfigsBuild:
    """A config that resolve_config accepts is one the run can build, in every scenario."""

    @settings(max_examples=300)
    @given(configs_near_the_bounds())
    @example({"scenario": "cart_dual", "plant": {"timestep": 5e-324}, "x0": [1.7e308] * 4})
    @example({"scenario": "logistic_nonlinear", "kernel": {"length_scale": 1.4e154}})
    def test_the_run_builders_construct(self, raw):
        try:
            cfg = resolve_config(raw)
        except ConfigError:
            return
        build_action_set(cfg)
        build_plant(cfg)
        build_io(cfg)
        Weights(**cfg["weights"])


class TestInitialData:
    def test_count_and_points_exclusive(self):
        with pytest.raises(ConfigError, match="initial_data"):
            resolve_config(
                {
                    "scenario": "logistic_nonlinear",
                    "initial_data": {"count": 2, "low": 0, "high": 1, "points": [[0, 0, 0]]},
                }
            )

    def test_random_draws_logistic_only(self):
        with pytest.raises(ConfigError, match="initial_data.count"):
            resolve_config(
                {"scenario": "cart_dual", "initial_data": {"count": 2, "low": 0, "high": 1}}
            )

    def test_benchmark_cannot_seed(self):
        with pytest.raises(ConfigError, match="initial_data"):
            resolve_config(
                {"scenario": "cart_benchmark", "initial_data": {"points": [[0, 0, 0, 0, 0]]}}
            )

    def test_points_width_checked(self):
        with pytest.raises(ConfigError, match=r"initial_data.points\[1\]"):
            resolve_config(
                {
                    "scenario": "logistic_linear",
                    "initial_data": {"points": [[0.1, 0.2, 0.3], [0.1, 0.2]]},
                }
            )

    def test_cart_points_width_is_five(self):
        cfg = resolve_config(
            {"scenario": "cart_dual", "initial_data": {"points": [[0.0, 0.1, 2.0, 0.01, 0.2]]}}
        )
        assert cfg["initial_data"] == {"points": [[0.0, 0.1, 2.0, 0.01, 0.2]]}

    def test_low_must_be_below_high(self):
        with pytest.raises(ConfigError, match="initial_data.high"):
            resolve_config(
                {"scenario": "logistic_nonlinear", "initial_data": {"count": 2, "low": 1, "high": 1}}
            )

    def test_draw_span_must_be_finite(self):
        # Generator.uniform cannot draw over a span that overflows
        block = {"count": 3, "low": -1.7e308, "high": 1.7e308}
        message = r"^initial_data.high: must exceed low=-1.7e\+308 by a finite span"
        with pytest.raises(ConfigError, match=message):
            resolve_config({"scenario": "logistic_nonlinear", "initial_data": block})


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "cart_dual", "steps": 5}), encoding="utf-8")
        cfg = resolve_config(load_config(path))
        assert cfg["steps"] == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"scenario": "cart_dual", "note": "\u00e9"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match="<config>"):
            load_config(path)

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="<config>"):
            load_config(tmp_path)

    def test_integer_too_long_to_parse(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"scenario": "cart_dual", "seed": 1' + "0" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ConfigError, match="<config>"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)
