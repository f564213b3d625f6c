"""Ground-truth simulators the controller is not allowed to inspect.

Two benchmark systems: a logistic map with either an additive or a
cosine control coupling, and a cart balancing an inverted pendulum.
Each plant is a single-owner state machine advanced by step(). Its
simulate(state, u) is its only one-step map: step() applies it to the
plant's own state, and planners, slices and random prior data apply it
to any state without touching the plant. Observations go through a
separate seeded channel that can add Gaussian noise; observing never
mutates the plant.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PlantDiverged",
    "LogisticPlant",
    "CartParams",
    "CartPlant",
    "ObservationChannel",
]


class PlantDiverged(RuntimeError):
    """A state update produced a non-finite component."""


def _require_finite(value, what: str):
    if isinstance(value, float) and math.isfinite(value):
        return value
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise PlantDiverged(f"{what} is non-finite: {arr}")
    return arr


class LogisticPlant:
    """Scalar logistic map x' = r x (1 - x) driven through the control input.

    coupling "additive" adds u to the map; "cosine" adds cos(u) instead
    and pins r at 3.8 (the chaotic regime this variant is defined for).
    """

    COSINE_R = 3.8

    def __init__(self, r_param: float = 3.5, coupling: str = "additive",
                 state: float = 0.1):
        if not (0 < r_param < np.inf):
            raise ValueError(f"r_param must be finite and > 0, got {r_param}")
        if coupling not in ("additive", "cosine"):
            raise ValueError(f"unknown coupling {coupling!r}")
        if coupling == "cosine" and r_param != self.COSINE_R:
            raise ValueError(
                f"cosine coupling requires r_param = {self.COSINE_R}, got {r_param}"
            )
        self.r_param = float(r_param)
        self.coupling = coupling
        self.state = float(_require_finite(state, "initial state"))

    def simulate(self, state, u: float) -> float:
        """One transition from an arbitrary state; the plant is untouched."""
        state = float(state)
        base = self.r_param * state * (1.0 - state)
        if self.coupling == "additive":
            return base + float(u)
        return base + np.cos(float(u))

    def step(self, u: float) -> float:
        self.state = float(_require_finite(self.simulate(self.state, u), "logistic state"))
        return self.state

    def output_of(self, state) -> np.ndarray:
        return np.atleast_1d(np.asarray(state, dtype=float))[:1].copy()

    def output(self) -> np.ndarray:
        """Noise-free observable, shape (1,)."""
        return self.output_of(self.state)


@dataclass(frozen=True)
class CartParams:
    """Physical constants of the cart with inverted pendulum."""

    timestep: float = 0.05      # T, sampling period (s)
    friction: float = 12.98     # b, cart friction coefficient
    cart_mass: float = 1.378    # M (kg)
    arm_length: float = 0.325   # L, pendulum arm (m)
    gravity: float = 9.8        # g (m/s^2)
    pendulum_mass: float = 0.051  # m (kg)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0 < value < np.inf):
                raise ValueError(f"{f.name} must be finite and > 0, got {value}")


class CartPlant:
    """Cart with an inverted pendulum, 4-state discrete dynamics.

    State is [position, velocity, pendulum angle, angular velocity].
    The observable is position plus velocity (the controller's learned
    map consumes velocity directly instead of differencing positions).
    """

    def __init__(self, state=(0.0, 0.0, 0.0, 0.0), params: CartParams = CartParams()):
        state = _require_finite(state, "initial state").reshape(-1)
        if state.shape != (4,):
            raise ValueError(f"cart state must have 4 components, got {state.shape}")
        self.state = state.copy()
        self.params = params

    def simulate(self, state, u: float) -> np.ndarray:
        """One transition from an arbitrary state; every right-hand side reads the old state."""
        x1, x2, x3, x4 = np.asarray(state, dtype=float).reshape(4)
        u = float(u)
        params = self.params
        T = params.timestep
        b = params.friction
        Mc = params.cart_mass
        L = params.arm_length
        g = params.gravity
        mp = params.pendulum_mass
        # overflow on a divergent trajectory is reported via PlantDiverged,
        # not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            s, c = np.sin(x3), np.cos(x3)
            denom = Mc + mp * s * s
            new1 = x1 + T * x2
            new2 = x2 + (T / denom) * (
                u + mp * L * x4 * x4 * s - b * x2 - mp * g * c * s
            )
            new3 = x3 + T * x4
            new4 = x4 + (T / (L * denom)) * (
                -u * c + (Mc + mp) * g * s + b * x2 * c - mp * L * x4 * x4 * c * s
            )
            return np.array([new1, new2, new3, new4])

    def step(self, u: float) -> np.ndarray:
        self.state = _require_finite(self.simulate(self.state, u), "cart state")
        return self.state.copy()

    def output_of(self, state) -> np.ndarray:
        return np.asarray(state, dtype=float).reshape(-1)[:2].copy()

    def output(self) -> np.ndarray:
        """Noise-free observable [position, velocity], shape (2,)."""
        return self.output_of(self.state)


class ObservationChannel:
    """Seeded additive-Gaussian measurement channel.

    noise_variance is the variance of the per-component noise; zero means
    the exact plant output is returned, and the channel holds no generator.
    """

    def __init__(self, noise_variance: float = 0.0, seed=None):
        if not (0 <= noise_variance < np.inf):
            raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
        self.noise_variance = float(noise_variance)
        self._rng = np.random.default_rng(seed) if self.noise_variance > 0 else None

    def observe(self, plant) -> np.ndarray:
        y = plant.output()
        if self.noise_variance == 0.0:
            return y
        return y + self._rng.normal(
            0.0, np.sqrt(self.noise_variance), size=y.shape
        )
