"""Online dual control: learn the dynamics while steering toward a reference.

Each step scores every action in a finite set by a weighted objective,
tracking distance of the predicted next output from the reference minus
a multiple of the predictive variance at the candidate input, applies the
argmin action to the plant, observes the (possibly noisy) result, and
feeds the new transition back into the structure's one GP model. The
benchmark planner runs the same loop with the true dynamics as an exact,
zero-variance model and no learning, to give the learned controller
something to be compared with.

Three I/O structures cover the experiments: additive_control (control
enters the output additively, so the GP learns only the drift),
black_box (the GP sees the concatenated state and action), and
partial_side_info (the cart: position kinematics are known exactly, the
GP learns the velocity map).
"""

from dataclasses import dataclass

import numpy as np

from .gp import FactorizationError, GpModel, KernelConfig, _as_rows
from .plants import ObservationChannel, PlantDiverged

__all__ = [
    "EpisodeAborted",
    "ActionSet",
    "Weights",
    "IoModel",
    "AdditiveControlModel",
    "BlackBoxModel",
    "CartSideInfoModel",
    "ActionChoice",
    "StepRecord",
    "make_reference",
    "select_action",
    "run_episode",
    "run_benchmark_episode",
]


class EpisodeAborted(RuntimeError):
    """Early stop at ``step``: ``records`` are the steps done, ``__cause__`` the reason."""

    def __init__(self, step: int, cause: Exception, records: list):
        super().__init__(f"step {step}: {cause}")
        self.step, self.records = step, records


class ActionSet:
    """Finite, nonempty set of scalar actions, stored as an (n, 1) column."""

    def __init__(self, actions):
        self.actions = _as_rows(actions, 1, "actions")
        if len(self.actions) == 0:
            raise ValueError("action set is empty")
        self.actions.setflags(write=False)

    @classmethod
    def from_grid(cls, low: float, high: float, step: float) -> "ActionSet":
        """Evenly spaced scalar actions low, low+step, ..., up to high inclusive."""
        if not (step > 0) or not (high > low):
            raise ValueError(f"need high > low and step > 0, got ({low}, {high}, {step})")
        if not np.isfinite(high - low):
            raise ValueError(f"need a finite span high - low, got ({low}, {high})")
        count = int(np.floor((high - low) / step + 1e-9)) + 1
        return cls(low + step * np.arange(count))

    def __len__(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class Weights:
    """Objective weights with an optional ramp on the exploration weight.

    w2(t) moves linearly from w2_start to w2_end over schedule_steps
    steps and stays at w2_end afterwards; schedule_steps = 0 means w2_end
    from the first step.
    """

    w1: float
    w2_start: float
    w2_end: float
    schedule_steps: int = 0

    def __post_init__(self):
        if not all(0 <= w < np.inf for w in (self.w1, self.w2_start, self.w2_end)):
            raise ValueError("weights must be finite and non-negative")
        if not (0 <= self.schedule_steps < np.inf):
            raise ValueError(f"schedule_steps must be finite and >= 0, got {self.schedule_steps}")
        # linear schedule: if both endpoints vanish with w1=0 the objective
        # is degenerate at some t
        if self.w1 + min(self.w2_start, self.w2_end) <= 0:
            raise ValueError("w1 + w2(t) must stay positive for all t")

    def w2_at(self, t: int) -> float:
        if self.schedule_steps <= 0 or t >= self.schedule_steps:
            return self.w2_end
        return self.w2_start + (self.w2_end - self.w2_start) * t / self.schedule_steps


class IoModel:
    """Shared shape of the learned input/output maps.

    Each structure learns one scalar map with one GP, held in the list
    ``gps``. Subclasses define how a (current output, action) pair becomes
    its input row, what scalar it is trained on, and how its posterior turns
    back into a prediction of the next output; update() replaces the GP.
    """

    def __init__(self, gps, obs_dim: int):
        self.gps = list(gps)
        self.obs_dim = obs_dim

    # subclasses: build the (n_actions, d_in) GP input rows for one output y
    def candidate_inputs(self, y, actions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # subclasses: turn the GP posterior into next-output mean/variance,
    # shapes (n_actions, obs_dim)
    def assemble(self, y, actions, raw_means, raw_vars):
        raise NotImplementedError

    # subclasses: the vector the objective compares against the reference,
    # shape (n_actions, ref_dim)
    def tracking_values(self, y, actions, means):
        return means

    # subclasses: per-transition (input, target) pairs, one target per GP
    def training_pair(self, y, u, y_next):
        raise NotImplementedError

    def predict_batch(self, y, actions: np.ndarray):
        """Next-output posterior for every scalar action: (means, variances),
        each of shape (n_actions, obs_dim)."""
        y = np.asarray(y, dtype=float).reshape(-1)
        actions = _as_rows(actions, 1, "actions")
        inputs = self.candidate_inputs(y, actions)
        raw_means = []
        raw_vars = []
        for gp in self.gps:
            m, v = gp.posterior_batch(inputs)
            raw_means.append(m)
            raw_vars.append(v)
        return self.assemble(y, actions, np.array(raw_means), np.array(raw_vars))

    def update(self, y, u, y_next):
        """Absorb one observed transition into the GP."""
        x, targets = self.training_pair(
            np.asarray(y, dtype=float).reshape(-1),
            np.atleast_1d(np.asarray(u, dtype=float)),
            np.asarray(y_next, dtype=float).reshape(-1),
        )
        self.gps = [gp.with_observation(x, t) for gp, t in zip(self.gps, targets)]


class AdditiveControlModel(IoModel):
    """Control shifts the next output additively: y' = f(y) + u.

    The GP input is the current output alone, the target is y' - u, and
    predictions add the candidate action back. Predictive variance is
    therefore the same for every action, which is exactly why this
    structure needs no exploration incentive.
    """

    def __init__(self, kernel: KernelConfig, noise_variance: float):
        super().__init__([GpModel.empty(kernel, noise_variance, 1)], obs_dim=1)

    def candidate_inputs(self, y, actions):
        return np.repeat(y[None, :], len(actions), axis=0)

    def assemble(self, y, actions, raw_means, raw_vars):
        return raw_means.T + actions, raw_vars.T

    def training_pair(self, y, u, y_next):
        return y, y_next - u


class BlackBoxModel(IoModel):
    """No structural knowledge: the GP maps (y, u) directly to the next y."""

    def __init__(self, kernel: KernelConfig, noise_variance: float):
        super().__init__([GpModel.empty(kernel, noise_variance, 2)], obs_dim=1)

    def candidate_inputs(self, y, actions):
        return np.hstack([np.repeat(y[None, :], len(actions), axis=0), actions])

    def assemble(self, y, actions, raw_means, raw_vars):
        return raw_means.T, raw_vars.T

    def training_pair(self, y, u, y_next):
        return np.concatenate([y, u]), y_next


class CartSideInfoModel(IoModel):
    """Position kinematics known exactly; only the velocity map is learned.

    Observation is [position, velocity]. The GP maps (velocity, action)
    to the next velocity; the next position is position + T * velocity
    with zero variance. Because the action takes one step to reach the
    position channel, the tracked quantity is the position two steps out:
    pos + T*vel + T*predicted_vel.
    """

    def __init__(self, kernel: KernelConfig, noise_variance: float, timestep: float):
        super().__init__([GpModel.empty(kernel, noise_variance, 2)], obs_dim=2)
        if not (0 < timestep < np.inf):
            raise ValueError(f"timestep must be finite and > 0, got {timestep}")
        self.timestep = timestep

    def candidate_inputs(self, y, actions):
        if y.shape[0] != 2:
            raise ValueError(f"cart observation must be [position, velocity], got {y}")
        return np.hstack([np.full((len(actions), 1), y[1]), actions])

    def assemble(self, y, actions, raw_means, raw_vars):
        n = len(actions)
        means = np.column_stack([np.full(n, y[0] + self.timestep * y[1]), raw_means[0]])
        variances = np.column_stack([np.zeros(n), raw_vars[0]])
        return means, variances

    def tracking_values(self, y, actions, means):
        # two-step position: the known kinematic step plus one more using
        # the predicted velocity
        return (means[:, 0] + self.timestep * means[:, 1])[:, None]

    def training_pair(self, y, u, y_next):
        return np.array([y[1], u[0]]), y_next[1:2]


@dataclass(frozen=True)
class ActionChoice:
    """Argmin action and the prediction data that justified it."""

    index: int
    action: np.ndarray
    predicted_mean: np.ndarray
    predicted_variance: np.ndarray
    objective_value: float


@dataclass(frozen=True)
class StepRecord:
    """One closed-loop step: what was done, seen, predicted, and scored."""

    step: int
    action: np.ndarray
    observation: np.ndarray
    reference: np.ndarray
    predicted_mean: np.ndarray
    predicted_variance: np.ndarray
    objective_value: float
    tracking_error: float
    estimation_error: float


def _finite_reference(value, what: str) -> np.ndarray:
    r = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(r)):
        raise ValueError(f"{what} must be finite, got {r}")
    return r


def make_reference(value):
    """Normalize a reference into a callable t -> finite vector.

    Accepts a scalar or vector (held constant) or a callable returning
    the per-step value, which is checked at each step.
    """
    if callable(value):
        return lambda t: _finite_reference(value(t), f"reference at step {t}")
    const = _finite_reference(value, "reference")
    return lambda t: const


def _score(io: IoModel, y, actions, r, w1: float, w2: float):
    means, variances = io.predict_batch(y, actions)
    tracked = io.tracking_values(np.asarray(y, dtype=float).reshape(-1), actions, means)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if tracked.shape[1] != r.shape[0]:
        raise ValueError(
            f"reference has dimension {r.shape[0]}, tracked output has {tracked.shape[1]}"
        )
    # a divergent prediction may overflow the squares inside the norm; it is inf then
    with np.errstate(over="ignore"):
        track_err = np.linalg.norm(tracked - r[None, :], axis=1)
    scores = w1 * track_err - w2 * np.sum(variances, axis=1)
    return scores, means, variances


def select_action(io: IoModel, y, r, phi: ActionSet, w1: float, w2: float) -> ActionChoice:
    """Best action in phi by the planning objective; ties take the lowest index."""
    scores, means, variances = _score(io, y, phi.actions, r, w1, w2)
    idx = int(np.argmin(scores))
    return ActionChoice(
        index=idx,
        action=phi.actions[idx].copy(),
        predicted_mean=means[idx].copy(),
        predicted_variance=variances[idx].copy(),
        objective_value=float(scores[idx]),
    )


def _finish_record(t, action, y_next, r_t, mean, variance, score):
    r_t = np.atleast_1d(np.asarray(r_t, dtype=float))
    # the reference addresses the leading output components (the cart
    # tracks position only, its observation also carries velocity)
    tracked = y_next[: r_t.shape[0]]
    # a divergent step may overflow the squares inside the norm; it is inf then
    with np.errstate(over="ignore"):
        tracking_error = float(np.linalg.norm(tracked - r_t))
        estimation_error = float(np.linalg.norm(y_next - mean))
    return StepRecord(
        step=t,
        action=action,
        observation=y_next,
        reference=r_t,
        predicted_mean=mean,
        predicted_variance=variance,
        objective_value=score,
        tracking_error=tracking_error,
        estimation_error=estimation_error,
    )


def run_episode(plant, io: IoModel, phi: ActionSet, reference, weights: Weights,
                steps: int, seed=None, noise_variance: float = 0.0):
    """Closed-loop run of the learning controller for a fixed number of steps.

    Deterministic given the seed: the only randomness is the observation
    noise stream. Returns one StepRecord per step; the io model keeps the
    final GPs. A plant divergence or singular GP update at step t raises
    EpisodeAborted with the records of steps 0..t-1, plus step t's own
    record when only its GP update failed.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    ref = make_reference(reference)
    channel = ObservationChannel(noise_variance, seed=seed)
    y = channel.observe(plant)
    records = []
    try:
        for t in range(steps):
            r_t = ref(t)
            choice = select_action(io, y, r_t, phi, weights.w1, weights.w2_at(t))
            plant.step(float(choice.action[0]))
            y_next = channel.observe(plant)
            records.append(_finish_record(
                t, choice.action, y_next, r_t,
                choice.predicted_mean, choice.predicted_variance, choice.objective_value,
            ))
            io.update(y, choice.action, y_next)
            y = y_next
    except (PlantDiverged, FactorizationError) as exc:
        raise EpisodeAborted(t, exc, records) from exc
    return records


class _ExactModel:
    """The plant's true one-step map as a zero-variance model that never learns."""

    def __init__(self, plant, io: IoModel):
        self.plant = plant
        self.tracking_values = io.tracking_values

    def predict_batch(self, y, actions):
        plant = self.plant
        means = np.array([plant.output_of(plant.simulate(plant.state, float(a[0])))
                          for a in actions])
        return means, np.zeros_like(means)

    def update(self, y, u, y_next):
        pass


def run_benchmark_episode(plant, io: IoModel, phi: ActionSet, reference, steps: int):
    """Full-knowledge planner: run_episode with the true dynamics as its model.

    Each step simulates every action once from the true state and picks the
    one whose tracked output, by the structure ``io``, lands closest to the
    reference. No learning, no noise; variances are recorded as zero and the
    predicted mean is the exact one-step output of the chosen action. A plant
    divergence at step t raises EpisodeAborted with steps 0..t-1.
    """
    exact = _ExactModel(plant, io)
    return run_episode(plant, exact, phi, reference, Weights(1.0, 0.0, 0.0), steps)
