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

import math
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
    "select_action",
    "run_episode",
    "run_benchmark_episode",
]


class EpisodeAborted(RuntimeError):
    """Early stop at ``step``: ``records`` are the steps done, ``__cause__`` the reason."""

    def __init__(self, step: int, cause: Exception, records: list):
        super().__init__(f"step {step}: {cause}")
        self.step, self.records = step, records


# bound on (max - min) / step; the shipped action grids hold 21-101 actions
_MAX_GRID_INTERVALS = 10**6


class ActionSet:
    """Finite, nonempty set of scalar actions, stored as an (n, 1) column."""

    def __init__(self, actions):
        self.actions = _as_rows(actions, 1, "actions").copy()  # the caller keeps its own array
        if len(self.actions) == 0:
            raise ValueError("action set is empty")
        self.actions.setflags(write=False)

    @classmethod
    def from_grid(cls, low: float, high: float, step: float) -> "ActionSet":
        """Evenly spaced scalar actions low, low+step, ..., up to high inclusive."""
        if not (0 < step < np.inf) or not (high > low):
            raise ValueError(f"need high > low and a finite step > 0, got ({low}, {high}, {step})")
        if not np.isfinite(high - low):
            raise ValueError(f"need a finite span high - low, got ({low}, {high})")
        intervals = float(high - low) / float(step)  # a Python float: inf, not a warning
        if not intervals < _MAX_GRID_INTERVALS:
            raise ValueError(f"(max - min) / step must be < {_MAX_GRID_INTERVALS}, "
                             f"got {intervals:.3g}")
        count = int(np.floor(intervals + 1e-9)) + 1
        return cls(low + step * np.arange(count))

    def __len__(self) -> int:
        return self.actions.shape[0]


def _check_weights(w1, *w2):
    """ValueError unless every weight is finite and >= 0 and w1 + the least w2 is > 0."""
    if not all(0 <= w < np.inf for w in (w1, *w2)):
        raise ValueError("weights must be finite and non-negative")
    if w1 + min(w2) <= 0:
        raise ValueError("w1 + w2(t) must stay positive for all t")


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
        # linear schedule: w2(t) is least at an endpoint
        _check_weights(self.w1, self.w2_start, self.w2_end)
        if not (0 <= self.schedule_steps < np.inf):
            raise ValueError(f"schedule_steps must be finite and >= 0, got {self.schedule_steps}")

    def w2_at(self, t: int) -> float:
        if self.schedule_steps <= 0 or t >= self.schedule_steps:
            return self.w2_end
        return self.w2_start + (self.w2_end - self.w2_start) * t / self.schedule_steps


class IoModel:
    """Shared shape of the learned input/output maps; the black-box map by default.

    Each structure learns one scalar map with one GP of ``input_dim``
    inputs, held in the one-item list ``gps``. A structure defines how a
    (current output, action) pair becomes its input row, the one row that
    both the query scores and update() appends; by default the GP's
    posterior is the next output and its scalar target is ``y_next[0]``.
    update() replaces the GP.
    """

    input_dim: int

    def __init__(self, kernel: KernelConfig, noise_variance: float):
        self.gps = [GpModel.empty(kernel, noise_variance, self.input_dim)]

    # subclasses: build the (n_actions, input_dim) GP input rows for one output y
    def candidate_inputs(self, y, actions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # the GP posterior, shape (n_actions,) each, as next-output mean/variance,
    # shapes (n_actions, width of the observation)
    def assemble(self, y, actions, raw_means, raw_vars):
        return raw_means[:, None], raw_vars[:, None]

    # the number per action that the objective compares with the reference,
    # shape (n_actions,), from predict_batch's means
    def tracking_values(self, means):
        return means[:, 0]

    # one transition's scalar GP target; update() calls it after candidate_inputs,
    # with y nonempty and y_next shaped as y
    def target(self, y, u, y_next):
        return y_next[0]

    def predict_batch(self, y, actions: np.ndarray):
        """Next-output posterior for every scalar action: (means, variances),
        each of shape (n_actions, width of the observation)."""
        y = np.asarray(y, dtype=float).reshape(-1)
        actions = _as_rows(actions, 1, "actions")
        (gp,) = self.gps
        means, variances = gp.posterior_batch(self.candidate_inputs(y, actions))
        return self.assemble(y, actions, means, variances)

    def update(self, y, u, y_next):
        """Absorb one observed transition, with its one finite scalar action, into the GP.

        The GP's new row is the one the query scored for ``u``.
        ValueError for an empty ``y``, or unless ``y_next`` has the shape of ``y``.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (1,) or not math.isfinite(u[0]):
            raise ValueError(f"an update takes one finite scalar action, got {u}")
        y = np.asarray(y, dtype=float).reshape(-1)
        y_next = np.asarray(y_next, dtype=float).reshape(-1)
        if y.size == 0:
            raise ValueError("an update takes a nonempty observation y")
        if y_next.shape != y.shape:
            raise ValueError(f"y_next has shape {y_next.shape} but y has shape {y.shape}")
        x = self.candidate_inputs(y, u[None, :])[0]
        (gp,) = self.gps
        self.gps = [gp.with_observation(x, self.target(y, u, y_next))]


class AdditiveControlModel(IoModel):
    """Control shifts the next output additively: y' = f(y) + u.

    The GP input is the current output alone, the target is y' - u, and
    predictions add the candidate action back. Predictive variance is
    therefore the same for every action, which is exactly why this
    structure needs no exploration incentive.
    """

    input_dim = 1

    def candidate_inputs(self, y, actions):
        return y[None, :].repeat(len(actions), axis=0)

    def assemble(self, y, actions, raw_means, raw_vars):
        return raw_means[:, None] + actions, raw_vars[:, None]

    def target(self, y, u, y_next):
        return float(y_next[0]) - float(u[0])  # Python floats: an overflow is inf, not a warning


class BlackBoxModel(IoModel):
    """No structural knowledge: the GP maps (y, u) directly to the next y."""

    input_dim = 2

    def candidate_inputs(self, y, actions):
        return np.hstack([y[None, :].repeat(len(actions), axis=0), actions])


class CartSideInfoModel(IoModel):
    """Position kinematics known exactly; only the velocity map is learned.

    Observation is [position, velocity]. The GP maps (velocity, action)
    to the next velocity; the next position is position + T * velocity
    with zero variance. Because the action takes one step to reach the
    position channel, the tracked quantity is the position two steps out:
    pos + T*vel + T*predicted_vel.
    """

    input_dim = 2

    def __init__(self, kernel: KernelConfig, noise_variance: float, timestep: float):
        super().__init__(kernel, noise_variance)
        if not (0 < timestep < np.inf):
            raise ValueError(f"timestep must be finite and > 0, got {timestep}")
        self.timestep = timestep

    def candidate_inputs(self, y, actions):
        if y.shape[0] != 2:
            raise ValueError(f"cart observation must be [position, velocity], got {y}")
        return np.hstack([np.full((len(actions), 1), y[1]), actions])

    def assemble(self, y, actions, raw_means, raw_vars):
        n = len(actions)
        means = np.column_stack([np.full(n, y[0] + self.timestep * y[1]), raw_means])
        variances = np.column_stack([np.zeros(n), raw_vars])
        return means, variances

    def tracking_values(self, means):
        # two-step position: the known kinematic step plus one more using
        # the predicted velocity
        return means[:, 0] + self.timestep * means[:, 1]

    def target(self, y, u, y_next):
        return y_next[1]


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
    reference: float
    predicted_mean: np.ndarray
    predicted_variance: np.ndarray
    objective_value: float
    tracking_error: float
    estimation_error: float


def _finite_reference(value) -> float:
    """The reference as a float: one finite real number, or ValueError."""
    r = np.asarray(value)
    if r.shape != () or r.dtype.kind not in "iuf" or not math.isfinite(r):
        raise ValueError(f"reference must be one finite real number, got {value!r}")
    return float(r)


def _score(io: IoModel, y, actions, r: float, w1: float, w2: float):
    """Objectives of ``actions``, their predictions, and d = tracked - r."""
    means, variances = io.predict_batch(y, actions)
    # sqrt(d * d), not abs(d): a distance above about 1.34e154 reads inf, the value traces keep
    with np.errstate(over="ignore"):
        d = io.tracking_values(means) - r
        track_err = np.sqrt(d * d)
    scores = -w2 * np.add.reduce(variances, axis=1)
    if w1:  # with w1 = 0 an overflowed distance would make 0 * inf = nan
        scores += w1 * track_err
    return scores, means, variances, d


def select_action(io: IoModel, y, r, phi: ActionSet, w1: float, w2: float) -> ActionChoice:
    """Best action in phi for the finite real reference ``r``; ties take the lowest index.

    ``w1`` and ``w2`` follow the rules of ``Weights``, or ValueError.
    """
    _check_weights(w1, w2)
    scores, means, variances, d = _score(io, y, phi.actions, _finite_reference(r), w1, w2)
    idx = int(scores.argmin())
    if not math.isfinite(scores[idx]):  # every distance overflowed: take the nearest
        idx = int(np.abs(d).argmin())
    return ActionChoice(
        index=idx,
        action=phi.actions[idx].copy(),
        predicted_mean=means[idx].copy(),
        predicted_variance=variances[idx].copy(),
        objective_value=float(scores[idx]),
    )


def _finish_record(t, action, y_next, r, mean, variance, score):
    """Step t's record; ``r`` is the checked float reference."""
    # the reference addresses the first output component (the cart tracks
    # position only, its observation also carries velocity). A divergent
    # step may overflow the squares; its error is inf then, so sqrt(d * d),
    # not abs(d). The estimation error is np.linalg.norm's, bit for bit
    with np.errstate(over="ignore"):
        tracking, estimation = y_next[0] - r, y_next - mean
        tracking_error = math.sqrt(tracking * tracking)
        estimation_error = math.sqrt(estimation.dot(estimation))
    return StepRecord(
        step=t,
        action=action,
        observation=y_next,
        reference=r,
        predicted_mean=mean,
        predicted_variance=variance,
        objective_value=score,
        tracking_error=tracking_error,
        estimation_error=estimation_error,
    )


def run_episode(plant, io: IoModel, phi: ActionSet, reference, weights: Weights,
                steps: int, seed=None, noise_variance: float = 0.0):
    """Closed-loop run of the learning controller for a fixed number of steps.

    ``reference`` is the set point, one finite real number. Deterministic
    given the seed: the only randomness is the observation noise stream.
    Returns one StepRecord per step; the io model keeps the final GP. A
    plant divergence or singular GP update at step t raises EpisodeAborted
    with the records of steps 0..t-1, plus step t's own record when only
    its GP update failed.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    r = _finite_reference(reference)
    channel = ObservationChannel(noise_variance, seed=seed)
    y = channel.observe(plant)
    records = []
    try:
        for t in range(steps):
            choice = select_action(io, y, r, phi, weights.w1, weights.w2_at(t))
            plant.step(float(choice.action[0]))
            y_next = channel.observe(plant)
            records.append(_finish_record(
                t, choice.action, y_next, r,
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
