"""Tests for the dual controller: I/O structures, objective, episode loops."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgp import config, control, harness
from dualgp.config import resolve_config
from dualgp.control import (
    ActionSet,
    AdditiveControlModel,
    BlackBoxModel,
    CartSideInfoModel,
    EpisodeAborted,
    Weights,
    run_benchmark_episode,
    run_episode,
    select_action,
)
from dualgp.gp import FactorizationError, KernelConfig
from dualgp.info import select_max_variance
from dualgp.plants import CartPlant, LogisticPlant, PlantDiverged

# dense one-point self-query with a=1, sigma=0.1: k C^-1 y and kappa - k C^-1 k
BB_MEAN_SELF = 0.8181818181818181
BB_VAR_SELF = 0.19090909090909103


KERN = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=1e-9)


def _scalar_io():
    """Structure of a scalar plant: the tracked quantity is the next output."""
    return AdditiveControlModel(KERN, noise_variance=0.0)


def _cart_io():
    """Cart structure: the tracked quantity is the two-step position."""
    return CartSideInfoModel(KERN, noise_variance=0.0, timestep=CartPlant().params.timestep)


class _IdentityPlant:
    """Toy plant whose next state is the action itself."""

    def __init__(self, state=0.0):
        self.state = float(state)

    def simulate(self, state, u):
        return float(u)

    def step(self, u):
        self.state = self.simulate(self.state, u)
        return self.output()

    def output_of(self, state):
        return np.array([float(state)])

    def output(self):
        return self.output_of(self.state)


class _FrozenPlant:
    """Output never moves, whatever the action; repeats GP inputs."""

    def __init__(self, value=0.5):
        self.value = value

    def step(self, u):
        return self.output()

    def output(self):
        return np.array([self.value])


class _DivergingPlant(_IdentityPlant):
    """Identity plant whose step number ``at`` diverges."""

    def __init__(self, at):
        super().__init__()
        self.at, self.steps = at, 0

    def step(self, u):
        if self.steps == self.at:
            raise PlantDiverged("stub state is non-finite")
        self.steps += 1
        return super().step(u)


class TestActionSet:
    def test_grid_counts(self):
        assert len(ActionSet.from_grid(-1.0, 1.0, 0.02)) == 101
        assert len(ActionSet.from_grid(0.0, np.pi, 0.1)) == 32
        assert len(ActionSet.from_grid(-10.0, 10.0, 1.0)) == 21

    def test_grid_endpoints(self):
        phi = ActionSet.from_grid(0.0, np.pi, 0.1)
        assert phi.actions[0, 0] == 0.0
        assert phi.actions[-1, 0] == pytest.approx(3.1, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ActionSet.from_grid(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            ActionSet.from_grid(0.0, 1.0, 0.0)
        for low, high in [(-1.7e308, 1.7e308), (0.0, np.inf)]:  # rejected before any allocation
            with pytest.raises(ValueError, match="finite span"):
                ActionSet.from_grid(low, high, 1.0)

    @pytest.mark.parametrize("low,high,step", [(0.0, 1.0, 1e-320), (0.0, 2.0, 1e-6)])
    def test_grid_of_a_million_intervals_or_more_rejected(self, low, high, step):
        # the config's bound: 1e-320 raised OverflowError, 1e-6 built 2 000 001 actions
        with pytest.raises(ValueError, match=r"^\(max - min\) / step must be < 1000000, got "):
            ActionSet.from_grid(low, high, step)

    @pytest.mark.parametrize("step", [np.inf, np.nan])
    def test_step_must_be_finite(self, step):
        # an infinite step used to reach inf * 0 = nan and a RuntimeWarning
        with pytest.raises(ValueError, match=r"^need high > low and a finite step > 0, got "):
            ActionSet.from_grid(0.0, 1.0, step)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="^action set is empty$"):
            ActionSet(np.empty((0, 1)))
        with pytest.raises(ValueError):
            ActionSet([np.inf])

    def test_actions_are_scalar(self):
        # a 2-D action used to be accepted here and fail later in a plant's float(u)
        with pytest.raises(ValueError, match="^actions have dimension 2, expected 1$"):
            ActionSet([[0.0, 1.0]])

    def test_actions_read_only(self):
        phi = ActionSet([0.0, 1.0])
        with pytest.raises(ValueError):
            phi.actions[0, 0] = 5.0

    def test_actions_are_a_copy(self):
        # the set neither freezes the caller's array nor follows its later writes
        a = np.array([[0.0], [1.0]])
        ActionSet(a)
        a[0, 0] = 2.0
        base = np.zeros((3, 2))
        phi = ActionSet(base[:, :1])
        base[0, 0] = 5.0
        assert phi.actions[0, 0] == 0.0


class TestWeights:
    def test_schedule_values(self):
        w = Weights(1.0, 0.0, 40.0, 100)
        assert w.w2_at(0) == 0.0
        assert w.w2_at(50) == 20.0
        assert w.w2_at(99) == pytest.approx(39.6)
        assert w.w2_at(100) == 40.0
        assert w.w2_at(150) == 40.0

    def test_zero_schedule_means_constant_end(self):
        w = Weights(1.0, 7.0, 3.0, 0)
        assert w.w2_at(0) == 3.0

    def test_constant_helper(self):
        w = Weights(2.0, 3.0, 3.0)
        assert (w.w2_at(0), w.w2_at(10**6)) == (3.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Weights(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Weights(1.0, 0.0, 1.0, schedule_steps=-2)
        # w1=0 with a vanishing endpoint would zero the whole objective
        with pytest.raises(ValueError):
            Weights(0.0, 0.0, 40.0, 100)

    @pytest.mark.parametrize("args", [
        (np.nan, 1.0, 1.0, 0),
        (np.inf, 1.0, 1.0, 0),
        (1.0, np.nan, 1.0, 10),
        (1.0, 0.0, np.inf, 10),
        (1.0, 0.0, 1.0, np.nan),
        (1.0, 0.0, 1.0, np.inf),
    ])
    def test_non_finite_rejected(self, args):
        # a NaN weight would make every objective NaN and argmin pick index 0
        with pytest.raises(ValueError, match="finite"):
            Weights(*args)


class TestPredictions:
    def test_additive_empty_model(self):
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        means, variances = io.predict_batch(np.array([0.5]), np.array([[0.6]]))
        assert means[0, 0] == pytest.approx(0.6)
        assert variances[0, 0] == pytest.approx(1.1)

    def test_additive_learns_drift_not_action(self):
        io = AdditiveControlModel(KERN, noise_variance=0.0)
        io.update(np.array([0.2]), np.array([0.7]), np.array([1.0]))
        # stored target is y' - u = 0.3; at zero jitter-scale noise the
        # interpolant passes through it, any action just shifts the mean
        mean_a, var_a = io.predict_batch(np.array([0.2]), np.array([[0.0]]))
        mean_b, var_b = io.predict_batch(np.array([0.2]), np.array([[5.0]]))
        assert mean_a[0, 0] == pytest.approx(0.3, abs=1e-7)
        assert mean_b[0, 0] == pytest.approx(5.3, abs=1e-7)
        assert var_a[0, 0] == pytest.approx(var_b[0, 0], abs=1e-15)

    def test_black_box_self_query(self):
        io = BlackBoxModel(KERN, noise_variance=0.1)
        io.update(np.array([0.5]), np.array([0.2]), np.array([0.9]))
        means, variances = io.predict_batch(np.array([0.5]), np.array([[0.2]]))
        # 1e-9 diagonal jitter shifts the exact 0.9/1.1 value at ~1e-9 scale
        assert means[0, 0] == pytest.approx(BB_MEAN_SELF, abs=1e-8)
        assert variances[0, 0] == pytest.approx(BB_VAR_SELF, abs=1e-8)

    def test_cart_position_channel_is_exact(self):
        io = CartSideInfoModel(KERN, noise_variance=0.0, timestep=0.05)
        means, variances = io.predict_batch(np.array([0.3, 0.7]), np.array([[2.0]]))
        assert means[0, 0] == pytest.approx(0.335)
        assert variances[0, 0] == 0.0
        assert variances[0, 1] == pytest.approx(1.0)  # empty velocity GP

    def test_cart_tracks_two_step_position(self):
        io = CartSideInfoModel(KERN, noise_variance=0.0, timestep=0.05)
        y = np.array([0.3, 0.7])
        means, _ = io.predict_batch(y, np.array([[2.0]]))
        tracked = io.tracking_values(means)
        assert tracked.shape == (1,)
        assert tracked[0] == pytest.approx(0.335 + 0.05 * means[0, 1])

    def test_cart_update_trains_velocity_only(self):
        io = CartSideInfoModel(KERN, noise_variance=0.0, timestep=0.05)
        io.update(np.array([0.1, 0.4]), np.array([3.0]), np.array([0.12, 0.55]))
        assert len(io.gps) == 1
        data = io.gps[0].data
        assert data.inputs.shape == (1, 2)
        np.testing.assert_allclose(data.inputs[0], [0.4, 3.0])
        np.testing.assert_allclose(data.targets, [0.55])

    @pytest.mark.parametrize("timestep", [0.0, np.inf, np.nan])
    def test_cart_timestep_must_be_finite_and_positive(self, timestep):
        with pytest.raises(ValueError, match="^timestep must be finite and > 0"):
            CartSideInfoModel(KERN, noise_variance=0.0, timestep=timestep)

    @pytest.mark.parametrize(
        "io,obs_dim,gp_dim",
        [
            (AdditiveControlModel(KERN, noise_variance=0.1), 1, 1),
            (BlackBoxModel(KERN, noise_variance=0.1), 1, 2),
            (CartSideInfoModel(KERN, noise_variance=0.1, timestep=0.05), 2, 2),
        ],
        ids=["additive", "black_box", "cart"],
    )
    def test_obs_dim_sets_prediction_width(self, io, obs_dim, gp_dim):
        # each structure learns one scalar map with one GP; predictions are as wide as y
        assert len(io.gps) == 1 and io.gps[0].dim == gp_dim
        means, variances = io.predict_batch(np.zeros(obs_dim), np.zeros((4, 1)))
        assert means.shape == variances.shape == (4, obs_dim)

    def test_additive_rejects_mismatched_action_dim(self):
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        with pytest.raises(ValueError, match="actions have dimension 2, expected 1"):
            io.predict_batch(np.array([0.0]), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("io,y", [
        (AdditiveControlModel(KERN, noise_variance=0.1), [0.3]),
        (BlackBoxModel(KERN, noise_variance=0.1), [0.3]),
        (CartSideInfoModel(KERN, noise_variance=0.1, timestep=0.05), [0.1, 0.4]),
    ], ids=["additive", "black_box", "cart"])
    def test_predict_batch_checks_actions_once(self, io, y):
        # a list of scalar actions predicts as the array does; two columns are one error
        io.update(y, [0.5], np.add(y, 0.2))
        listed = io.predict_batch(y, [[0.3], [-0.2]])
        array = io.predict_batch(np.array(y), np.array([[0.3], [-0.2]]))
        for got, want in zip(listed, array):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="^actions have dimension 2, expected 1$"):
            io.predict_batch(y, [[0.3, 0.1]])

    @pytest.mark.parametrize("io,y,u", [
        (AdditiveControlModel(KERN, noise_variance=0.1), [0.3], [0.5, 9.0]),
        (AdditiveControlModel(KERN, noise_variance=0.1), [0.3], [[0.5]]),
        (AdditiveControlModel(KERN, noise_variance=0.1), [0.3], [np.inf]),
        (AdditiveControlModel(KERN, noise_variance=0.1), [0.3], []),
        (CartSideInfoModel(KERN, noise_variance=0.1, timestep=0.05), [0.1, 0.4], [0.2, 0.5]),
        (CartSideInfoModel(KERN, noise_variance=0.1, timestep=0.05), [0.1, 0.4], [np.nan]),
        (BlackBoxModel(KERN, noise_variance=0.1), [0.3], [0.2, 0.5]),
    ], ids=["additive-two", "additive-row", "additive-inf", "additive-none",
            "cart-two", "cart-nan", "black_box-two"])
    def test_update_takes_one_finite_scalar_action(self, io, y, u):
        # the additive model stored y' - 0.5 and dropped the 9.0; the cart stored (0.4, 0.5)
        with pytest.raises(ValueError, match="^an update takes one finite scalar action, got "):
            io.update(y, u, np.add(y, 0.2))
        assert len(io.gps[0].data) == 0
        io.update(y, [0.5], np.add(y, 0.2))
        io.update(y, 0.25, np.add(y, 0.1))
        assert len(io.gps[0].data) == 2

    @pytest.mark.parametrize("io,y,y_next,message", [
        (AdditiveControlModel(KernelConfig(0.5, 1.0, 1e-9), noise_variance=0.0), [0.1],
         [0.5, 0.7], r"^y_next has shape \(2,\) but y has shape \(1,\)$"),
        (BlackBoxModel(KernelConfig(0.5, 1.0, 1e-9), noise_variance=0.0), [0.1],
         [[0.5, 0.7]], r"^y_next has shape \(2,\) but y has shape \(1,\)$"),
        (CartSideInfoModel(KernelConfig(0.5, 1.0, 1e-9), 0.0, 0.05), [0.1, 0.2, 5.0],
         [0.5, 0.7], r"^y_next has shape \(2,\) but y has shape \(3,\)$"),
        (CartSideInfoModel(KernelConfig(0.5, 1.0, 1e-9), 0.0, 0.05), [0.1, 0.2, 5.0],
         [0.5, 0.7, 1.0], r"^cart observation must be \[position, velocity\], got "),
        (CartSideInfoModel(KernelConfig(0.5, 1.0, 1e-9), 0.0, 0.05), [0.1],
         [0.2], r"^cart observation must be \[position, velocity\], got "),
        (AdditiveControlModel(KernelConfig(0.5, 1.0, 1e-9), noise_variance=0.0), [],
         [], r"^an update takes a nonempty observation y$"),
        (BlackBoxModel(KernelConfig(0.5, 1.0, 1e-9), noise_variance=0.0), [],
         [], r"^an update takes a nonempty observation y$"),
    ], ids=["additive-wider", "black_box-wider", "cart-narrower", "cart-three", "cart-one",
            "additive-empty", "black_box-empty"])
    def test_update_takes_observations_of_one_shape(self, io, y, y_next, message):
        # the additive model stored 0.2 and dropped the 0.7; the cart stored (0.2, 0.3)
        # from a y that predict_batch rejects, or raised IndexError, as an empty y did
        with pytest.raises(ValueError, match=message):
            io.update(y, 0.3, y_next)
        assert len(io.gps[0].data) == 0


# any finite float a GP with noise 0.1 stores without overflow, and small ones
FINITE = st.one_of(st.floats(-1e300, 1e300, allow_nan=False), st.floats(-3.0, 3.0))


def _written_out_row_rule(kind, y, u, y_next):
    """Each structure's (input row, target) for one transition, written out per structure."""
    if kind == "additive":
        return np.array([y[0]]), y_next[0] - u
    if kind == "black_box":
        return np.array([y[0], u]), y_next[0]
    return np.array([y[1], u]), y_next[1]


class _RowOnlyModel(control.IoModel):
    """A structure that states only its GP width and input row: the black-box defaults."""

    input_dim = 2
    candidate_inputs = BlackBoxModel.candidate_inputs


class TestRowRule:
    """update() appends the row that candidate_inputs scored for the action."""

    @settings(max_examples=150)
    @given(st.sampled_from(["additive", "black_box", "cart"]),
           st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=4))
    def test_update_stores_the_scored_row_and_the_structure_target(self, kind, steps):
        io = {
            "additive": AdditiveControlModel(KERN, noise_variance=0.1),
            "black_box": BlackBoxModel(KERN, noise_variance=0.1),
            "cart": CartSideInfoModel(KERN, noise_variance=0.1, timestep=0.05),
        }[kind]
        width = 2 if kind == "cart" else 1
        for m, (y0, y1, u, z0, z1) in enumerate(steps):
            y, y_next = np.array([y0, y1][:width]), np.array([z0, z1][:width])
            io.update(y, u, y_next)
            row, target = _written_out_row_rule(kind, y, u, y_next)
            data = io.gps[0].data
            assert data.inputs[m].tobytes() == row.tobytes()
            assert data.targets[m].tobytes() == np.float64(target).tobytes()
            assert data.inputs[m].tobytes() == io.candidate_inputs(y, np.array([[u]]))[0].tobytes()

    def test_a_structure_of_input_dim_and_row_alone_is_the_black_box(self, monkeypatch):
        cfg = resolve_config({"scenario": "logistic_nonlinear", "steps": 40})
        want = harness.run_scenario(cfg)
        monkeypatch.setattr(config, "BlackBoxModel", _RowOnlyModel)
        got = harness.run_scenario(cfg)
        assert type(got.io) is _RowOnlyModel and type(want.io) is BlackBoxModel
        assert len(got.records) == len(want.records) == 40
        assert got.training_hash == want.training_hash
        for a, b in zip(got.records, want.records):
            for field in dataclasses.fields(a):
                got_bits = np.asarray(getattr(a, field.name), dtype=float).tobytes()
                assert got_bits == np.asarray(getattr(b, field.name), dtype=float).tobytes()


class _GivenPrediction:
    """A zero-variance model whose predictions are given (n, 1) rows, tracked as they are."""

    def __init__(self, means):
        self.means = means

    def predict_batch(self, y, actions):
        return self.means, np.zeros_like(self.means)

    def tracking_values(self, means):
        return means[:, 0]


# any finite float, the largest included, so that differences and squares overflow
WIDE = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


def _vector(draw, size):
    return np.array(draw(st.lists(st.one_of(WIDE, st.floats(-3.0, 3.0)),
                                  min_size=size, max_size=size)), dtype=float)


class TestNorms:
    """The loop's distances are sqrt(d * d): inf where the square overflows."""

    @settings(max_examples=200)
    @given(st.data(), st.integers(1, 5))
    def test_scores_are_the_row_norms(self, data, n):
        # w1 = 1, w2 = 0 and zero variances: each score is its tracking distance
        means = _vector(data.draw, n)[:, None]
        r = float(_vector(data.draw, 1)[0])
        scores = control._score(_GivenPrediction(means), [0.0], np.zeros((n, 1)), r, 1.0, 0.0)[0]
        with np.errstate(over="ignore"):
            d = means[:, 0] - r
            want = np.sqrt(d * d)
        assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mean,r", [(1e200, 0.0), (1.7e308, -1.7e308), (-1e155, 1e155)])
    def test_an_overflowing_distance_scores_inf(self, mean, r):
        # abs(d) would read 1e200 or 2e155 here; the distance has always read inf
        scores = control._score(_GivenPrediction(np.array([[mean], [r]])), [0.0],
                                np.zeros((2, 1)), r, 1.0, 0.0)[0]
        assert scores.tolist() == [np.inf, 0.0]

    @settings(max_examples=200)
    @given(st.data(), st.integers(1, 2))
    def test_record_errors_are_the_vector_norms(self, data, width):
        # tracking: the first output component against r; estimation: the whole output
        y_next, mean = _vector(data.draw, width), _vector(data.draw, width)
        r = float(_vector(data.draw, 1)[0])
        rec = control._finish_record(0, np.zeros(1), y_next, r, mean, np.zeros(width), 0.0)
        with np.errstate(over="ignore"):
            d = float(y_next[0] - r)
            estimation = float(np.linalg.norm(y_next - mean))
        assert np.float64(rec.tracking_error).tobytes() == np.float64(math.sqrt(d * d)).tobytes()
        assert np.float64(rec.estimation_error).tobytes() == np.float64(estimation).tobytes()
        assert type(rec.tracking_error) is type(rec.estimation_error) is float
        assert rec.reference == r


class _CountingPlant(LogisticPlant):
    """Logistic plant that counts its steps."""

    steps = 0

    def step(self, u):
        self.steps += 1
        return super().step(u)


class TestReference:
    """The reference is one finite real number, checked before any plant step."""

    @pytest.mark.parametrize("reference", [[0.8], [0.1, 0.2], lambda t: 0.8, np.nan, np.inf],
                             ids=["one-item-list", "pair", "callable", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["run_episode", "run_benchmark_episode", "select_action"])
    def test_anything_else_is_rejected(self, entry, reference):
        plant = _CountingPlant(r_param=3.5, coupling="additive", state=0.1)
        io, phi = _scalar_io(), ActionSet.from_grid(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="^reference must be one finite real number, got "):
            if entry == "run_episode":
                run_episode(plant, io, phi, reference, Weights(1, 1, 1), steps=3)
            elif entry == "run_benchmark_episode":
                run_benchmark_episode(plant, io, phi, reference, steps=3)
            else:
                select_action(io, plant.output(), reference, phi, 1.0, 1.0)
        assert plant.steps == 0 and plant.state == 0.1
        assert len(io.gps[0].data) == 0

    @pytest.mark.parametrize("reference", [0.8, 1, np.float32(0.5), np.int64(1), np.array(0.8)],
                             ids=["float", "int", "float32", "int64", "0-d"])
    def test_a_number_numpy_scalar_or_0d_array_is_taken(self, reference):
        plant = _CountingPlant(r_param=3.5, coupling="additive", state=0.1)
        records = run_episode(plant, _scalar_io(), ActionSet.from_grid(-1.0, 1.0, 0.5),
                              reference, Weights(1, 1, 1), steps=2)
        assert [type(r.reference) for r in records] == [float, float]
        assert records[0].reference == float(reference) and plant.steps == 2


class TestObjective:
    def test_hand_value(self):
        # empty GP with a=0.04, sigma=0.01: prediction is u, variance 0.05
        io = AdditiveControlModel(
            KernelConfig(signal_variance=0.04, length_scale=1.0, jitter=1e-9),
            noise_variance=0.01,
        )
        choice = select_action(io, np.array([0.3]), 0.8, ActionSet([0.6]), w1=1.0, w2=1.0)
        assert choice.objective_value == pytest.approx(0.15, abs=1e-12)

    def test_reference_dim_checked(self):
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        with pytest.raises(ValueError):
            select_action(io, np.array([0.0]), np.array([0.1, 0.2]), ActionSet([0.5]), 1.0, 1.0)


class TestSelectAction:
    def test_pure_tracking_picks_nearest_action(self):
        # empty additive model predicts u itself, so w2=0 reduces the
        # objective to |u - r| over the grid
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        phi = ActionSet.from_grid(-1.0, 1.0, 0.02)
        choice = select_action(io, np.array([0.1]), 0.8, phi, w1=1.0, w2=0.0)
        assert choice.index == 90
        assert choice.action[0] == pytest.approx(0.8)

    def test_known_means_example(self):
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        phi = ActionSet([0.0, 0.5, 1.0])
        choice = select_action(io, np.array([0.0]), 0.45, phi, w1=1.0, w2=0.0)
        assert choice.index == 1
        assert choice.objective_value == pytest.approx(0.05)

    def test_additive_tie_takes_lowest_index(self):
        # every action shares the same variance, w1=0 ties all scores
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        phi = ActionSet.from_grid(-1.0, 1.0, 0.5)
        choice = select_action(io, np.array([0.1]), 0.8, phi, w1=0.0, w2=1.0)
        assert choice.index == 0

    def test_pure_exploration_matches_max_variance_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            io = BlackBoxModel(KERN, noise_variance=0.1)
            for _ in range(rng.integers(1, 5)):
                io.update(
                    rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
                )
            y = rng.uniform(-1, 1, 1)
            phi = ActionSet(np.linspace(-1, 1, 9))
            choice = select_action(io, y, 0.0, phi, w1=0.0, w2=2.5)
            rows = io.candidate_inputs(y, phi.actions)
            picked = select_max_variance(io.gps[0], rows)
            assert choice.index == picked.index

    def test_matches_per_action_objective_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            io = BlackBoxModel(KERN, noise_variance=0.1)
            for _ in range(rng.integers(0, 4)):
                io.update(
                    rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
                )
            y = rng.uniform(-1, 1, 1)
            r = rng.uniform(-1, 1)
            w1, w2 = rng.uniform(0.1, 2, 2)
            phi = ActionSet(rng.uniform(-1, 1, 7))
            choice = select_action(io, y, r, phi, w1, w2)
            scores = [select_action(io, y, r, ActionSet([u]), w1, w2).objective_value
                      for u in phi.actions[:, 0]]
            assert choice.index == int(np.argmin(scores))
            assert choice.objective_value == pytest.approx(min(scores), abs=1e-12)

    def test_argmin_invariant_under_weight_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            io = BlackBoxModel(KERN, noise_variance=0.1)
            for _ in range(rng.integers(1, 4)):
                io.update(
                    rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
                )
            y = rng.uniform(-1, 1, 1)
            r = rng.uniform(-1, 1)
            w1, w2 = rng.uniform(0.1, 3, 2)
            c = rng.uniform(0.01, 100)
            phi = ActionSet(rng.uniform(-1, 1, 8))
            base = select_action(io, y, r, phi, w1, w2)
            scaled = select_action(io, y, r, phi, c * w1, c * w2)
            assert base.index == scaled.index

    @pytest.mark.parametrize("actions,r,index", [
        ([1e200, 2e200], 3e200, 1),
        ([5e200, -1e200, 3e200], 1e200, 1),  # the nearest two tie: the lower index
        ([1e300, 2e300], 0.8, 0),
    ])
    def test_every_distance_overflowing_takes_the_nearest(self, actions, r, index):
        # every |d| is above 1.34e154, so every objective reads inf; the
        # nearest action is still the one to take, and the objective stays inf
        io = AdditiveControlModel(KernelConfig(0.5, 1.0, 1e-9), 0.0)
        choice = select_action(io, [0.1], r, ActionSet(actions), 1.0, 0.0)
        assert choice.index == index
        assert choice.objective_value == np.inf

    def test_pure_exploration_with_every_distance_overflowing(self):
        # w1 = 0 drops the tracking term: no 0 * inf = nan, the objective is -w2 * variance
        io = AdditiveControlModel(KernelConfig(0.5, 1.0, 1e-9), 0.0)
        phi = ActionSet([1e200, 2e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            choice = select_action(io, [0.1], 3e200, phi, 0.0, 1.0)
        rows = io.candidate_inputs(np.array([0.1]), phi.actions)
        picked = select_max_variance(io.gps[0], rows)
        assert choice.index == picked.index
        assert choice.objective_value == -picked.score

    @pytest.mark.parametrize("w1,w2,message", [
        (np.nan, 1.0, "^weights must be finite and non-negative$"),
        (1.0, np.nan, "^weights must be finite and non-negative$"),
        (-1.0, 0.0, "^weights must be finite and non-negative$"),
        (0.0, 0.0, r"^w1 \+ w2\(t\) must stay positive for all t$"),
        (np.inf, 1.0, "^weights must be finite and non-negative$"),
    ])
    def test_weights_follow_the_rules_of_weights(self, w1, w2, message):
        # these chose the farthest action, index 0 or a NaN objective without an error
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        phi = ActionSet.from_grid(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=message):
            select_action(io, np.array([0.1]), 0.8, phi, w1, w2)
        with pytest.raises(ValueError, match=message):
            Weights(w1, w2, w2)

    def test_empty_action_set_rejected(self):
        io = AdditiveControlModel(KERN, noise_variance=0.1)
        phi = ActionSet([0.0])
        phi.actions = np.empty((0, 1))
        with pytest.raises(ValueError):
            select_action(io, np.array([0.0]), 0.5, phi, 1.0, 1.0)


class TestRunEpisode:
    def _logistic_setup(self, r_param=3.5):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=1e-9)
        io = AdditiveControlModel(kern, noise_variance=0.0)
        plant = LogisticPlant(r_param=r_param, coupling="additive", state=0.1)
        phi = ActionSet.from_grid(-1.0, 1.0, 0.02)
        return plant, io, phi

    def test_single_step_bookkeeping(self):
        plant, io, phi = self._logistic_setup()
        records = run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=1)
        assert len(records) == 1
        rec = records[0]
        assert rec.step == 0
        assert len(io.gps[0].data) == 1
        np.testing.assert_allclose(rec.observation, plant.output())
        assert rec.reference == 0.8

    def test_dataset_grows_per_step(self):
        plant, io, phi = self._logistic_setup()
        run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=17)
        assert len(io.gps[0].data) == 17

    def test_noise_free_runs_are_reproducible(self):
        recs = []
        for _ in range(2):
            plant, io, phi = self._logistic_setup()
            recs.append(
                run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=25)
            )
        for a, b in zip(*recs):
            assert a.action[0] == b.action[0]
            assert a.observation[0] == b.observation[0]

    def test_noisy_runs_match_per_seed(self):
        def go(seed):
            plant, io, phi = self._logistic_setup()
            return run_episode(
                plant, io, phi, 0.8, Weights(1, 1, 1),
                steps=15, seed=seed, noise_variance=1e-4,
            )

        a, b, c = go(4), go(4), go(5)
        assert all(x.observation[0] == y.observation[0] for x, y in zip(a, b))
        assert any(x.observation[0] != y.observation[0] for x, y in zip(a, c))

    def test_logistic_tracking_converges(self):
        plant, io, phi = self._logistic_setup(r_param=3.5)
        records = run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=100)
        late = [r.tracking_error for r in records if r.step >= 30]
        assert max(late) < 0.05

    def test_estimation_error_shrinks(self):
        plant, io, phi = self._logistic_setup(r_param=3.5)
        records = run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=100)
        errs = [r.estimation_error for r in records]
        assert np.mean(errs[-10:]) < 0.1 * np.mean(errs[:10])

    def test_divergence_reports_step(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=1e-9)
        io = AdditiveControlModel(kern, noise_variance=0.0)
        plant = LogisticPlant(r_param=3.8, coupling="additive", state=5.0)
        phi = ActionSet.from_grid(-1.0, 1.0, 0.02)
        with pytest.raises(EpisodeAborted, match=r"step \d+:") as info:
            run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=100)
        assert isinstance(info.value.__cause__, PlantDiverged)

    def test_repeated_input_reports_step(self):
        # a frozen plant feeds the same y row to the GP twice; with zero
        # noise and zero jitter the second insert must fail loudly,
        # naming the step
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=0.0)
        io = AdditiveControlModel(kern, noise_variance=0.0)
        with pytest.raises(EpisodeAborted, match=r"step \d+:.*duplicate") as info:
            run_episode(
                _FrozenPlant(), io, ActionSet.from_grid(-1, 1, 0.5),
                0.8, Weights(1, 1, 1), steps=5,
            )
        assert isinstance(info.value.__cause__, FactorizationError)

    def test_steps_validated(self):
        plant, io, phi = self._logistic_setup()
        with pytest.raises(ValueError):
            run_episode(plant, io, phi, 0.8, Weights(1, 1, 1), steps=0)


class TestEpisodeAborted:
    """An early stop names its step and keeps exactly the completed records."""

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("loop", ["learning", "benchmark"])
    def test_plant_divergence_keeps_steps_before_it(self, loop, k):
        plant, phi = _DivergingPlant(at=k), ActionSet.from_grid(0.0, 1.0, 0.25)
        with pytest.raises(EpisodeAborted, match=rf"^step {k}: stub state") as info:
            if loop == "learning":
                io = AdditiveControlModel(KERN, noise_variance=0.01)
                run_episode(plant, io, phi, 0.5, Weights(1, 1, 1), steps=10)
            else:
                run_benchmark_episode(plant, _scalar_io(), phi, 0.5, steps=10)
        assert info.value.step == k
        assert [r.step for r in info.value.records] == list(range(k))
        assert isinstance(info.value.__cause__, PlantDiverged)

    def test_update_failure_keeps_its_own_step(self):
        # the frozen plant repeats its output, so with unit signal variance
        # and no noise or jitter the second GP update (step 1) has a pivot
        # of exactly 0 and fails after the plant completed that step
        io = AdditiveControlModel(KernelConfig(1.0, 1.0, jitter=0.0), noise_variance=0.0)
        with pytest.raises(EpisodeAborted) as info:
            run_episode(
                _FrozenPlant(), io, ActionSet.from_grid(-1, 1, 0.5),
                0.8, Weights(1, 1, 1), steps=5,
            )
        assert info.value.step == 1
        assert [r.step for r in info.value.records] == [0, 1]
        assert isinstance(info.value.__cause__, FactorizationError)


class TestCartEpisode:
    def test_dual_reaches_target_band(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=20.0, jitter=1e-9)
        io = CartSideInfoModel(kern, noise_variance=0.01, timestep=0.05)
        plant = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
        phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
        records = run_episode(
            plant, io, phi, 0.5, Weights(1.0, 20.0, 20.0),
            steps=40, seed=0, noise_variance=0.01,
        )
        hits = [r.step for r in records if abs(r.observation[0] - 0.5) <= 0.05]
        assert hits and hits[0] <= 40

    def test_tracking_error_uses_position_only(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=20.0, jitter=1e-9)
        io = CartSideInfoModel(kern, noise_variance=0.01, timestep=0.05)
        plant = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
        phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
        records = run_episode(
            plant, io, phi, 0.5, Weights(1.0, 20.0, 20.0),
            steps=5, seed=0, noise_variance=0.01,
        )
        for rec in records:
            assert rec.tracking_error == pytest.approx(abs(rec.observation[0] - 0.5))


class TestBenchmark:
    def test_identity_plant_picks_nearest(self):
        plant = _IdentityPlant()
        phi = ActionSet.from_grid(0.0, 1.0, 0.25)
        records = run_benchmark_episode(plant, _scalar_io(), phi, 0.6, steps=1)
        assert records[0].action[0] == pytest.approx(0.5)

    def test_exact_tie_takes_lower_index(self):
        plant = _IdentityPlant()
        phi = ActionSet.from_grid(0.0, 1.0, 0.25)
        records = run_benchmark_episode(plant, _scalar_io(), phi, 0.625, steps=1)
        assert records[0].action[0] == pytest.approx(0.5)

    def test_variance_fields_are_zero(self):
        records = run_benchmark_episode(
            _IdentityPlant(), _scalar_io(), ActionSet([0.0, 1.0]), 0.7, steps=3
        )
        for rec in records:
            assert np.all(rec.predicted_variance == 0.0)

    def test_predicted_mean_is_exact_one_step(self):
        plant = _IdentityPlant()
        records = run_benchmark_episode(plant, _scalar_io(), ActionSet([0.25, 0.75]), 0.7, steps=2)
        # next state equals the chosen action for this plant
        for rec in records:
            assert rec.estimation_error == 0.0

    def test_cart_benchmark_reaches_band(self):
        plant = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
        phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
        records = run_benchmark_episode(plant, _cart_io(), phi, 0.5, steps=40)
        hits = [r.step for r in records if abs(r.observation[0] - 0.5) <= 0.05]
        assert hits and hits[0] <= 40

    def test_benchmark_is_deterministic(self):
        runs = []
        for _ in range(2):
            plant = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
            phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
            runs.append(run_benchmark_episode(plant, _cart_io(), phi, 0.5, steps=20))
        for a, b in zip(*runs):
            assert a.action[0] == b.action[0]
            assert np.array_equal(a.observation, b.observation)

    def test_simulates_each_action_once_per_step(self):
        plant = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
        calls = []

        def simulate(state, u):
            calls.append(u)
            return CartPlant.simulate(plant, state, u)

        plant.simulate = simulate
        phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
        records = run_benchmark_episode(plant, _cart_io(), phi, 0.5, steps=3)
        # each step scores all 21 actions, then step() applies the chosen one
        assert calls == [u for r in records for u in [*phi.actions[:, 0], r.action[0]]]

    def test_tracked_quantity_comes_from_the_structure(self):
        class Mirrored(AdditiveControlModel):
            def tracking_values(self, means):
                return -means[:, 0]

        phi = ActionSet.from_grid(0.0, 1.0, 0.25)
        plain = run_benchmark_episode(_IdentityPlant(), _scalar_io(), phi, 0.6, steps=1)
        mirrored = run_benchmark_episode(
            _IdentityPlant(), Mirrored(KERN, noise_variance=0.0), phi, 0.6, steps=1
        )
        # |u - 0.6| is least at u = 0.5, |-u - 0.6| at u = 0
        assert plain[0].action[0] == 0.5 and mirrored[0].action[0] == 0.0
        assert mirrored[0].objective_value == pytest.approx(0.6)

    def test_cart_scores_the_two_step_position(self):
        plant = CartPlant(state=[0.1, 0.4, 0.6, 0.0])
        phi = ActionSet.from_grid(-10.0, 10.0, 1.0)
        before = plant.state.copy()
        rec = run_benchmark_episode(plant, _cart_io(), phi, 0.5, steps=1)[0]
        T = plant.params.timestep
        two_step = [
            abs(s[0] + T * s[1] - 0.5)
            for s in (plant.simulate(before, u) for u in phi.actions[:, 0])
        ]
        assert rec.action[0] == phi.actions[int(np.argmin(two_step)), 0]
        assert rec.objective_value == min(two_step)


class TestNonlinearScenarioSmoke:
    def test_seeded_run_survives_and_tracks(self):
        # ten random prior measurements plus a ramped exploration weight;
        # the plant is unforgiving (overshoot past ~1.26 never recovers)
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=1e-9)
        phi = ActionSet.from_grid(0.0, np.pi, 0.1)
        rng = np.random.default_rng(0)
        io = BlackBoxModel(kern, noise_variance=0.0)
        gp = io.gps[0]
        ys = rng.uniform(0.0, 1.2, size=10)
        us = rng.choice(phi.actions[:, 0], size=10)
        for y, u in zip(ys, us):
            gp = gp.with_observation([y, u], 3.8 * y * (1 - y) + np.cos(u))
        io.gps = [gp]
        plant = LogisticPlant(r_param=3.8, coupling="cosine", state=0.1)
        records = run_episode(
            plant, io, phi, 0.8, Weights(1.0, 0.0, 40.0, 100), steps=100, seed=0
        )
        final20 = float(np.mean([r.tracking_error for r in records[-20:]]))
        assert final20 < 0.2
