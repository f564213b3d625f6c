"""Online dual control: learn the dynamics while steering toward a reference.

Each step scores every action in a finite set by a weighted objective,
tracking distance of the predicted next output from the reference minus
a multiple of the predictive variance at the candidate input, applies the
argmin action to the plant, observes the (possibly noisy) result, and
feeds the new transition back into the per-output GP models. A separate
benchmark mode plans against the true dynamics with no learning, to give
the learned controller something to be compared with.

Three I/O structures cover the experiments: additive_control (control
enters the output additively, so the GP learns only the drift),
black_box (the GP sees the concatenated state and action), and
partial_side_info (the cart: position kinematics are known exactly, the
GP learns the velocity map).
"""

from dataclasses import dataclass

import numpy as np

from .gp import FactorizationError, GpModel, KernelConfig, _as_rows

__all__ = [
    "ActionSet",
    "Weights",
    "IoModel",
    "AdditiveControlModel",
    "BlackBoxModel",
    "CartSideInfoModel",
    "ActionChoice",
    "StepRecord",
    "make_reference",
    "objective",
    "select_action",
    "run_episode",
    "run_benchmark_episode",
]


class ActionSet:
    """Finite set of control vectors the planner may choose from."""

    def __init__(self, actions):
        self.actions = _as_rows(actions, None, "actions")
        self.actions.setflags(write=False)

    @classmethod
    def from_grid(cls, low: float, high: float, step: float) -> "ActionSet":
        """Evenly spaced scalar actions low, low+step, ..., up to high inclusive."""
        if not (step > 0) or not (high > low):
            raise ValueError(f"need high > low and step > 0, got ({low}, {high}, {step})")
        count = int(np.floor((high - low) / step + 1e-9)) + 1
        return cls(low + step * np.arange(count))

    @property
    def dim(self) -> int:
        return self.actions.shape[1]

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
        if self.w1 < 0 or self.w2_start < 0 or self.w2_end < 0:
            raise ValueError("weights must be non-negative")
        if self.schedule_steps < 0:
            raise ValueError("schedule_steps must be >= 0")
        # linear schedule: if both endpoints vanish with w1=0 the objective
        # is degenerate at some t
        if self.w1 + min(self.w2_start, self.w2_end) <= 0:
            raise ValueError("w1 + w2(t) must stay positive for all t")

    @classmethod
    def constant(cls, w1: float, w2: float) -> "Weights":
        return cls(w1=w1, w2_start=w2, w2_end=w2, schedule_steps=0)

    def w2_at(self, t: int) -> float:
        if self.schedule_steps <= 0 or t >= self.schedule_steps:
            return self.w2_end
        return self.w2_start + (self.w2_end - self.w2_start) * t / self.schedule_steps


class IoModel:
    """Shared shape of the learned input/output maps.

    Subclasses define how a (current output, action) pair becomes a GP
    input row, what scalar each per-output GP is trained on, and how GP
    posteriors turn back into a prediction of the next output. They own
    their GpModel list; update() replaces entries in place.
    """

    structure = "abstract"

    def __init__(self, gps):
        self.gps = list(gps)

    # subclasses: build the (n_actions, d_in) GP input rows for one output y
    def candidate_inputs(self, y, actions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # subclasses: turn per-GP posteriors into next-output mean/variance,
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

    @property
    def obs_dim(self) -> int:
        raise NotImplementedError

    def predict_batch(self, y, actions: np.ndarray):
        """Next-output posterior for every action: (means, variances),
        each of shape (n_actions, obs_dim)."""
        y = np.asarray(y, dtype=float).reshape(-1)
        inputs = self.candidate_inputs(y, actions)
        raw_means = []
        raw_vars = []
        for gp in self.gps:
            m, v = gp.posterior_batch(inputs)
            raw_means.append(m)
            raw_vars.append(v)
        return self.assemble(y, actions, np.array(raw_means), np.array(raw_vars))

    def predict(self, y, u):
        """Single-action version of predict_batch, shapes (obs_dim,)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        means, variances = self.predict_batch(y, u[None, :])
        return means[0], variances[0]

    def update(self, y, u, y_next):
        """Absorb one observed transition into every per-output GP."""
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

    structure = "additive_control"

    def __init__(self, kernel: KernelConfig, noise_variance: float, obs_dim: int = 1):
        super().__init__(
            GpModel.empty(kernel, noise_variance, dim=obs_dim) for _ in range(obs_dim)
        )
        self._obs_dim = obs_dim

    @property
    def obs_dim(self) -> int:
        return self._obs_dim

    def candidate_inputs(self, y, actions):
        if actions.shape[1] != self._obs_dim:
            raise ValueError("additive control needs action dim == output dim")
        return np.repeat(y[None, :], len(actions), axis=0)

    def assemble(self, y, actions, raw_means, raw_vars):
        return raw_means.T + actions, raw_vars.T

    def training_pair(self, y, u, y_next):
        return y, y_next - u


class BlackBoxModel(IoModel):
    """No structural knowledge: the GP maps (y, u) directly to the next y."""

    structure = "black_box"

    def __init__(self, kernel: KernelConfig, noise_variance: float,
                 obs_dim: int = 1, act_dim: int = 1):
        super().__init__(
            GpModel.empty(kernel, noise_variance, dim=obs_dim + act_dim)
            for _ in range(obs_dim)
        )
        self._obs_dim = obs_dim

    @property
    def obs_dim(self) -> int:
        return self._obs_dim

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

    structure = "partial_side_info"

    def __init__(self, kernel: KernelConfig, noise_variance: float, timestep: float):
        super().__init__([GpModel.empty(kernel, noise_variance, dim=2)])
        if not (timestep > 0):
            raise ValueError(f"timestep must be > 0, got {timestep}")
        self.timestep = timestep

    @property
    def obs_dim(self) -> int:
        return 2

    def candidate_inputs(self, y, actions):
        if y.shape[0] != 2:
            raise ValueError(f"cart observation must be [position, velocity], got {y}")
        if actions.shape[1] != 1:
            raise ValueError("cart control is scalar")
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


def make_reference(value):
    """Normalize a reference into a callable t -> vector.

    Accepts a scalar or vector (held constant) or a callable returning
    the per-step value.
    """
    if callable(value):
        return lambda t: np.atleast_1d(np.asarray(value(t), dtype=float))
    const = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(const)):
        raise ValueError(f"reference must be finite, got {const}")
    return lambda t: const


def _score(io: IoModel, y, actions, r, w1: float, w2: float):
    means, variances = io.predict_batch(y, actions)
    tracked = io.tracking_values(np.asarray(y, dtype=float).reshape(-1), actions, means)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if tracked.shape[1] != r.shape[0]:
        raise ValueError(
            f"reference has dimension {r.shape[0]}, tracked output has {tracked.shape[1]}"
        )
    track_err = np.linalg.norm(tracked - r[None, :], axis=1)
    scores = w1 * track_err - w2 * np.sum(variances, axis=1)
    return scores, means, variances


def objective(io: IoModel, y, u, r, w1: float, w2: float) -> float:
    """Planning score of one action: w1 * ||prediction - r|| - w2 * total variance."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    scores, _, _ = _score(io, y, u[None, :], r, w1, w2)
    return float(scores[0])


def select_action(io: IoModel, y, r, phi: ActionSet, w1: float, w2: float) -> ActionChoice:
    """Best action in phi by the planning objective; ties take the lowest index."""
    if len(phi) == 0:
        raise ValueError("action set is empty")
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
    final GPs. Raises with the step index if the plant diverges or a GP
    update hits a singular covariance.
    """
    from .plants import ObservationChannel, PlantDiverged

    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    ref = make_reference(reference)
    channel = ObservationChannel(noise_variance, seed=seed)
    y = channel.observe(plant)
    records = []
    for t in range(steps):
        r_t = ref(t)
        choice = select_action(io, y, r_t, phi, weights.w1, weights.w2_at(t))
        u = choice.action if phi.dim > 1 else float(choice.action[0])
        try:
            plant.step(u)
        except PlantDiverged as exc:
            wrapped = PlantDiverged(f"step {t}: {exc}")
            wrapped.records = records  # completed steps, for partial traces
            raise wrapped from None
        y_next = channel.observe(plant)
        records.append(
            _finish_record(
                t, choice.action, y_next, r_t,
                choice.predicted_mean, choice.predicted_variance,
                choice.objective_value,
            )
        )
        try:
            io.update(y, choice.action, y_next)
        except FactorizationError as exc:
            wrapped = FactorizationError(f"step {t}: {exc}")
            wrapped.records = records
            raise wrapped from None
        y = y_next
    return records


def run_benchmark_episode(plant, phi: ActionSet, reference, steps: int,
                          lookahead: int = 1):
    """Full-knowledge planner: roll the true dynamics forward per action.

    Each step simulates every action held constant for `lookahead`
    transitions and picks the one whose committed tracked output lands
    closest to the reference. No learning, no noise; variance fields are
    recorded as zero and the predicted mean is the exact one-step output.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if lookahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {lookahead}")
    if phi.dim != 1:
        raise ValueError("benchmark planning expects scalar actions")
    ref = make_reference(reference)
    records = []
    for t in range(steps):
        r_t = ref(t)
        try:
            best = None
            for i, action in enumerate(phi.actions):
                u = float(action[0])
                state = plant.state
                for _ in range(lookahead):
                    state = plant.simulate(state, u)
                err = abs(plant.plan_output(state) - float(r_t[0]))
                if best is None or err < best[0]:
                    best = (err, i)
            err, idx = best
            u = float(phi.actions[idx][0])
            one_step = plant.simulate(plant.state, u)
            predicted = plant.output_of(one_step)
            plant.step(u)
            y_next = plant.output()
        except PlantDiverged as exc:
            wrapped = PlantDiverged(f"step {t}: {exc}")
            wrapped.records = records
            raise wrapped from None
        records.append(
            _finish_record(
                t, phi.actions[idx].copy(), y_next, r_t,
                predicted, np.zeros_like(predicted), float(err),
            )
        )
    return records
