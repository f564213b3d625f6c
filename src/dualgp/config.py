"""Scenario configuration: JSON in, a resolved dict out, and the objects a run builds from it.

Each experiment is one JSON file naming a scenario; every other field is
optional and overrides that scenario's baked-in defaults. Resolution
deep-merges the overrides, checks each against the type and bound of the
default it replaces, then calls the builders a run uses (action set,
structure, weights, plant), whose objects own the cross-field rules. The
result is a plain dict whose shape is stable enough to snapshot in tests.
Errors carry the dotted field path that caused them.
"""

import json
import math
import sys
from dataclasses import asdict, fields

from .control import ActionSet, AdditiveControlModel, BlackBoxModel, CartSideInfoModel, Weights
from .gp import KernelConfig
from .plants import CartParams, CartPlant, LogisticPlant

__all__ = ["ConfigError", "SCENARIOS", "load_config", "resolve_config", "scenario_defaults"]

SCENARIOS = ("logistic_linear", "logistic_nonlinear", "cart_dual", "cart_benchmark")

_LOGISTIC_LINEAR = {
    "scenario": "logistic_linear",
    "plant": {"kind": "logistic", "r_param": 3.5, "coupling": "additive"},
    "x0": [0.1],
    "target": [0.8],
    "action_grid": {"min": -1.0, "max": 1.0, "step": 0.02},
    "kernel": {"signal_variance": 0.5, "length_scale": 1.0, "jitter": 1e-9},
    "noise_variance": 0.0,
    "weights": {"w1": 1.0, "w2_start": 1.0, "w2_end": 1.0, "schedule_steps": 0},
    "steps": 100,
    "seed": 0,
    "selection": "dual",
    "initial_data": None,
}

_CART_DUAL = {
    "scenario": "cart_dual",
    "plant": {"kind": "cart", **asdict(CartParams())},
    "x0": [0.0, 0.0, 0.6, 0.0],
    "target": [0.5],
    "action_grid": {"min": -10.0, "max": 10.0, "step": 1.0},
    "kernel": {"signal_variance": 0.5, "length_scale": 20.0, "jitter": 1e-9},
    "noise_variance": 0.01,
    "weights": {"w1": 1.0, "w2_start": 20.0, "w2_end": 20.0, "schedule_steps": 0},
    "steps": 100,
    "seed": 0,
    "selection": "dual",
    "initial_data": None,
}

# one entry per scenario; values mirror the experiments the package
# reproduces, everything user-overridable except plant.kind; a derived
# scenario names only the fields where it differs from its base
_DEFAULTS = {
    "logistic_linear": _LOGISTIC_LINEAR,
    "logistic_nonlinear": {
        **_LOGISTIC_LINEAR,
        "scenario": "logistic_nonlinear",
        "plant": {"kind": "logistic", "r_param": LogisticPlant.COSINE_R, "coupling": "cosine"},
        "action_grid": {"min": 0.0, "max": math.pi, "step": 0.1},
        "weights": {"w1": 1.0, "w2_start": 0.0, "w2_end": 40.0, "schedule_steps": 100},
        # the cosine-coupled map punishes blind exploration hard (a single
        # overshoot past its recoverable band never comes back), so the
        # learner starts from a handful of random prior measurements
        "initial_data": {"count": 10, "low": 0.0, "high": 1.2},
    },
    "cart_dual": _CART_DUAL,
    "cart_benchmark": {
        **_CART_DUAL,
        "scenario": "cart_benchmark",
        "noise_variance": 0.0,
        "selection": "benchmark",
    },
}


# lower bound of each bounded numeric field: (minimum, exclusive)
_BOUNDS = {
    "plant.r_param": (0.0, True),
    **{f"plant.{f.name}": (0.0, True) for f in fields(CartParams)},
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

# string fields with a choice; any other string field is fixed to its default
_CHOICES = {"plant.coupling": ("additive", "cosine"), "selection": ("dual", "benchmark")}

# initial_data's random draws, each checked like any other leaf
_DRAWS = {"count": 1, "low": 0.0, "high": 0.0}


class ConfigError(ValueError):
    """Validation failure tied to one dotted config field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def scenario_defaults(scenario: str) -> dict:
    """Deep copy of one scenario's fully resolved default config."""
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    return json.loads(json.dumps(_DEFAULTS[scenario]))


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<config>", f"no such file: {path}") from None
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, oversized integers
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(field, value) -> float:
    if not _is_number(value):
        raise ConfigError(field, f"expected a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf or too large an int
        raise ConfigError(field, f"must be finite, got {value!r}")
    return float(value)


def _leaf(field, default, value):
    """Check one value against the type of its default and its bound in _BOUNDS."""
    if isinstance(default, str):
        allowed = _CHOICES.get(field, (default,))
        if value not in allowed:
            raise ConfigError(field, f"expected {' or '.join(map(repr, allowed))}, got {value!r}")
        return value
    if isinstance(default, list):
        if _is_number(value):
            value = [value]
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError(field, f"expected a number list, got {value!r}")
        if len(value) != len(default):
            raise ConfigError(field, f"expected {len(default)} component(s), got {len(value)}")
        return [_float(field, v) for v in value]
    if isinstance(default, float):
        value = _float(field, value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if field in _BOUNDS:
        minimum, exclusive = _BOUNDS[field]
        if not (value > minimum if exclusive else value >= minimum):
            raise ConfigError(field, f"must be {'>' if exclusive else '>='} {minimum}, got {value}")
    return value


def _merge(base: dict, override: dict, path: str) -> dict:
    out = dict(base)
    for key, value in override.items():
        field = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(field, "unknown field")
        if key == "initial_data":
            out[key] = value  # replaced wholesale, checked by _initial_data
        elif isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(field, f"expected an object, got {type(value).__name__}")
            out[key] = _merge(base[key], value, field)
        else:
            out[key] = _leaf(field, base[key], value)
    return out


def _initial_data(cfg):
    block = cfg["initial_data"]
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("initial_data", "expected null or an object")
    if cfg["selection"] == "benchmark":
        raise ConfigError("initial_data", "the full-knowledge planner does not learn; remove it")
    if ("points" in block) == ("count" in block):
        raise ConfigError("initial_data", "give exactly one of 'points' or 'count'")
    for key in block:
        if key not in (("points",) if "points" in block else _DRAWS):
            raise ConfigError(f"initial_data.{key}", "unknown field")
    logistic = cfg["plant"]["kind"] == "logistic"
    if "points" in block:
        points = block["points"]
        if not isinstance(points, list) or not points:
            raise ConfigError("initial_data.points", "expected a nonempty list of rows")
        row = [0.0] * (3 if logistic else 5)  # observation, action, next observation
        return {"points": [_leaf(f"initial_data.points[{i}]", row, r) for i, r in enumerate(points)]}
    if not logistic:
        raise ConfigError(
            "initial_data.count", "random draws need a scalar observation; give explicit points"
        )
    draws = {k: _leaf(f"initial_data.{k}", d, block.get(k)) for k, d in _DRAWS.items()}
    if not draws["high"] > draws["low"]:
        raise ConfigError("initial_data.high", f"must exceed low={draws['low']}, got {draws['high']}")
    return draws


def build_action_set(cfg: dict) -> ActionSet:
    g = cfg["action_grid"]
    return ActionSet.from_grid(g["min"], g["max"], g["step"])


def build_plant(cfg: dict):
    plant = cfg["plant"]
    if plant["kind"] == "logistic":
        return LogisticPlant(
            r_param=plant["r_param"], coupling=plant["coupling"], state=cfg["x0"][0]
        )
    params = CartParams(**{f.name: plant[f.name] for f in fields(CartParams)})
    return CartPlant(state=cfg["x0"], params=params)


def build_io(cfg: dict):
    kernel = KernelConfig(**cfg["kernel"])
    noise = cfg["noise_variance"]
    if cfg["plant"]["kind"] == "cart":
        return CartSideInfoModel(kernel, noise, timestep=cfg["plant"]["timestep"])
    if cfg["plant"]["coupling"] == "additive":
        return AdditiveControlModel(kernel, noise)
    return BlackBoxModel(kernel, noise)


def resolve_config(raw: dict) -> dict:
    """Merge a user config over its scenario defaults; check each field, then cross-field rules."""
    if "scenario" not in raw:
        raise ConfigError("scenario", "required")
    cfg = _merge(scenario_defaults(raw["scenario"]), raw, "")
    grid = cfg["action_grid"]
    if not grid["max"] > grid["min"]:
        raise ConfigError("action_grid.max", f"must exceed min={grid['min']}, got {grid['max']}")
    # the builders a run uses, by the field their ValueError is reported under
    builders = {
        "action_grid.step": build_action_set,
        "kernel.length_scale": build_io,
        "weights.w1": lambda cfg: Weights(**cfg["weights"]),
    }
    if cfg["plant"]["kind"] == "logistic":
        builders["plant.r_param"] = build_plant
    for field, build in builders.items():
        try:
            build(cfg)
        except ValueError as exc:
            raise ConfigError(field, str(exc)) from None
    cfg["initial_data"] = _initial_data(cfg)
    return cfg
