"""Plant simulators: logistic map variants, cart-pendulum, noise channel."""

import dataclasses
import math

import numpy as np
import pytest

from dualgp.plants import (
    CartParams,
    CartPlant,
    LogisticPlant,
    ObservationChannel,
    PlantDiverged,
)

# frozen one-step values for the tilted-pendulum start, from a separate
# hand-coded evaluation of the update equations
TILTED_NEXT = (0.0, -0.008352695626614334, 0.6, 0.8725187358298846)

# limit-cycle values the r=3.5 map settles into (any rotation)
CYCLE_R35 = sorted([0.826941, 0.500884, 0.874997, 0.382820])


def cart_oracle(state, u, T=0.05, b=12.98, M=1.378, L=0.325, g=9.8, m=0.051):
    """Sequential scalar transcription of the dynamics, kept independent
    of the production code on purpose."""
    x1, x2, x3, x4 = [float(v) for v in state]
    sin3 = math.sin(x3)
    cos3 = math.cos(x3)
    d = M + m * sin3**2
    f1 = x1 + T * x2
    bracket2 = u + m * L * x4**2 * sin3 - b * x2 - m * g * cos3 * sin3
    f2 = x2 + T * bracket2 / d
    f3 = x3 + T * x4
    bracket4 = (
        -u * cos3 + (M + m) * g * sin3 + b * x2 * cos3 - m * L * x4**2 * cos3 * sin3
    )
    f4 = x4 + T * bracket4 / (L * d)
    return [f1, f2, f3, f4]


class TestLogisticPlant:
    def test_origin_is_fixed_point(self):
        p = LogisticPlant(r_param=3.5, coupling="additive", state=0.0)
        assert p.step(0.0) == 0.0

    def test_uncontrolled_map_value(self):
        p = LogisticPlant(r_param=3.8, coupling="additive", state=0.5)
        assert p.step(0.0) == pytest.approx(0.95, abs=1e-15)

    def test_cosine_coupling_kills_quarter_turn(self):
        p = LogisticPlant(r_param=3.8, coupling="cosine", state=0.0)
        assert abs(p.step(np.pi / 2)) < 1e-15

    def test_cosine_requires_its_r(self):
        with pytest.raises(ValueError):
            LogisticPlant(r_param=3.5, coupling="cosine")

    @pytest.mark.parametrize("r_param", [np.nan, np.inf, -2.0, 0.0])
    def test_r_param_must_be_finite_and_positive(self, r_param):
        # the config's bound on plant.r_param; NaN or inf diverged at step 0
        with pytest.raises(ValueError, match="^r_param must be finite and > 0"):
            LogisticPlant(r_param=r_param)

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ValueError):
            LogisticPlant(coupling="quadratic")

    def test_additive_control_shifts_state(self):
        p = LogisticPlant(r_param=3.5, state=0.5)
        assert p.step(0.25) == pytest.approx(3.5 * 0.25 + 0.25, abs=1e-15)

    def test_period_four_cycle_at_r35(self):
        p = LogisticPlant(r_param=3.5, state=0.1)
        xs = [p.state]
        for _ in range(300):
            xs.append(p.step(0.0))
        for n in range(200, len(xs) - 4):
            assert abs(xs[n + 4] - xs[n]) < 1e-6
        assert sorted(xs[-4:]) == pytest.approx(CYCLE_R35, abs=1e-5)

    def test_chaotic_regime_at_r38(self):
        p = LogisticPlant(r_param=3.8, state=0.1)
        xs = [p.state]
        for _ in range(10_000):
            xs.append(p.step(0.0))
        arr = np.array(xs)
        assert np.all((arr >= 0.0) & (arr <= 1.0))
        # never settles into a short cycle
        tail = arr[200:]
        gaps = np.stack([np.abs(tail[k:-(8 - k) or None] - tail[: -(8)]) for k in range(1, 9)])
        assert np.max(np.min(gaps, axis=0)) > 1e-3

    def test_divergence_detected(self):
        p = LogisticPlant(r_param=3.5, state=1e200)
        with pytest.raises(PlantDiverged):
            p.step(0.0)

    def test_output_shape(self):
        p = LogisticPlant(state=0.4)
        out = p.output()
        assert out.shape == (1,) and out[0] == 0.4


class TestCartPlant:
    def test_upright_rest_is_fixed_point(self):
        p = CartPlant(state=[0.3, 0.0, 0.0, 0.0])
        assert np.array_equal(p.step(0.0), [0.3, 0.0, 0.0, 0.0])

    def test_equilibrium_exact_for_1000_steps(self):
        p = CartPlant(state=[0.3, 0.0, 0.0, 0.0])
        for _ in range(1000):
            p.step(0.0)
        assert np.array_equal(p.state, [0.3, 0.0, 0.0, 0.0])

    def test_tilted_start_frozen_values(self):
        p = CartPlant(state=[0.0, 0.0, 0.6, 0.0])
        new = p.step(0.0)
        assert new == pytest.approx(TILTED_NEXT, abs=1e-12)
        assert cart_oracle([0.0, 0.0, 0.6, 0.0], 0.0) == pytest.approx(
            TILTED_NEXT, abs=1e-12
        )

    def test_position_kinematics(self):
        p = CartPlant(state=[0.0, 1.0, 0.0, 0.0])
        assert p.step(0.0)[0] == pytest.approx(0.05, abs=1e-15)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            state = rng.uniform([-1, -3, -np.pi, -3], [1, 3, np.pi, 3])
            u = float(rng.uniform(-10, 10))
            got = CartPlant().simulate(state, u)
            want = cart_oracle(state, u)
            assert got == pytest.approx(want, abs=1e-12)

    def test_output_exposes_position_and_velocity(self):
        p = CartPlant(state=[0.1, -0.2, 0.3, 0.4])
        assert np.array_equal(p.output(), [0.1, -0.2])

    def test_bad_state_shape_rejected(self):
        with pytest.raises(ValueError):
            CartPlant(state=[0.0, 0.0, 0.0])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            CartParams(timestep=0.0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CartParams)])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_every_constant_must_be_finite_and_positive(self, name, value):
        # the bounds the config applies to plant.*; a NaN or infinite
        # constant would make every step diverge
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CartParams(**{name: value})

    def test_divergence_detected(self):
        p = CartPlant(state=[0.0, 1e300, 0.0, 0.0])
        with pytest.raises(PlantDiverged):
            for _ in range(10):
                p.step(0.0)


class TestObservationChannel:
    def test_zero_noise_is_exact(self):
        p = LogisticPlant(state=0.37)
        ch = ObservationChannel(noise_variance=0.0, seed=1)
        assert np.array_equal(ch.observe(p), [0.37])

    def test_observe_never_mutates_plant(self):
        p = CartPlant(state=[0.1, 0.2, 0.3, 0.4])
        ch = ObservationChannel(noise_variance=0.5, seed=2)
        before = p.state.copy()
        for _ in range(10):
            ch.observe(p)
        assert np.array_equal(p.state, before)

    def test_seeded_stream_reproducible(self):
        p = LogisticPlant(state=0.5)
        a = ObservationChannel(noise_variance=0.01, seed=5)
        b = ObservationChannel(noise_variance=0.01, seed=5)
        seq_a = [a.observe(p)[0] for _ in range(20)]
        seq_b = [b.observe(p)[0] for _ in range(20)]
        assert seq_a == seq_b
        c = ObservationChannel(noise_variance=0.01, seed=6)
        assert [c.observe(p)[0] for _ in range(20)] != seq_a

    def test_seeded_draws_are_frozen(self):
        # a noisy channel seeds and draws as it always has; the cart_dual goldens rest on it
        p, c = LogisticPlant(state=0.5), CartPlant(state=[0.1, 0.2, 0.3, 0.4])
        logistic = ObservationChannel(noise_variance=0.01, seed=5)
        assert [logistic.observe(p)[0] for _ in range(3)] == [
            0.41980685747465524, 0.36756410043718546, 0.47516383779047516]
        cart = ObservationChannel(noise_variance=0.5, seed=2)
        assert [cart.observe(c).tolist() for _ in range(2)] == [
            [0.23368092827245662, -0.16963896782573562],
            [-0.19208003259335157, -1.5263781423104135]]

    def test_empirical_noise_variance(self):
        p = LogisticPlant(state=0.5)
        ch = ObservationChannel(noise_variance=0.01, seed=7)
        draws = np.array([ch.observe(p)[0] for _ in range(100_000)]) - 0.5
        assert 0.0095 <= np.var(draws) <= 0.0105

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ObservationChannel(noise_variance=-0.01)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_variance_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^noise_variance must be finite and >= 0"):
            ObservationChannel(noise_variance=value)
