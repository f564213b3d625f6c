"""GP regression layer: kernel, data set, posterior, bordered log-dets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualgp.gp import (
    DataSet,
    FactorizationError,
    GpModel,
    KernelConfig,
    gaussian_entropy,
)

# frozen reference values, computed from the closed forms with numpy
EXP_HALF = 0.6065306597126334       # exp(-0.5)
MEAN_SELF = 0.9090909090909091      # 1 / 1.1
VAR_SELF = 0.19090909090909103      # 1.1 - 1/1.1
LOGDET_PAIR = -0.17183209348270312  # ln(1.21 - exp(-1))
ENTROPY_1D = 1.4189385332046727     # 0.5 * (1 + ln 2pi)
ENTROPY_2D = 2.8378770664093453


def reference_posterior(kernel, noise, X, y, q):
    """Dense textbook computation via numpy solves, no shared code path."""
    a, l = kernel.signal_variance, kernel.length_scale
    M = len(X)
    C = np.zeros((M, M))
    for i in range(M):
        for j in range(M):
            C[i, j] = a * np.exp(-0.5 * np.sum((X[i] - X[j]) ** 2) / l**2)
    C += (noise + kernel.jitter) * np.eye(M)
    k = np.array([a * np.exp(-0.5 * np.sum((X[i] - q) ** 2) / l**2) for i in range(M)])
    sol = np.linalg.solve(C, y)
    mean = k @ sol
    var = a + noise - k @ np.linalg.solve(C, k)
    return mean, var


class TestKernel:
    def test_value_at_zero_distance_is_signal_variance(self):
        k = KernelConfig(signal_variance=0.5, length_scale=2.0)
        assert k.value([1.0, -3.0], [1.0, -3.0]) == pytest.approx(0.5)

    def test_unit_kernel_at_unit_distance(self):
        k = KernelConfig(signal_variance=1.0, length_scale=1.0)
        assert k.value([0.0], [1.0]) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_length_scale_rescales_distance(self):
        k = KernelConfig(signal_variance=1.0, length_scale=2.0)
        assert k.value([0.0], [2.0]) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_symmetry_and_bounds(self):
        k = KernelConfig(signal_variance=0.7, length_scale=0.9)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.normal(size=(2, 3))
            assert k.value(p, q) == pytest.approx(k.value(q, p), abs=1e-15)
            assert 0.0 < k.value(p, q) <= 0.7 + 1e-15

    def test_cross_matches_scalar(self):
        k = KernelConfig(signal_variance=0.5, length_scale=1.3)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(4, 2))
        cols = rng.normal(size=(3, 2))
        out = k.cross(rows, cols)
        assert out.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert out[i, j] == pytest.approx(k.value(rows[i], cols[j]), abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"signal_variance": 0.0},
            {"signal_variance": -1.0},
            {"length_scale": 0.0},
            {"jitter": -1e-9},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)


class TestDataSet:
    def test_empty_needs_dim(self):
        d = DataSet.empty(2)
        assert len(d) == 0 and d.dim == 2
        with pytest.raises(ValueError):
            DataSet([], [])

    def test_append_returns_new_value(self):
        d0 = DataSet.empty(1)
        d1 = d0.append([0.5], 1.0)
        assert len(d0) == 0 and len(d1) == 1
        assert d1.inputs[0, 0] == 0.5 and d1.targets[0] == 1.0

    def test_inputs_are_read_only(self):
        d = DataSet([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            d.inputs[0, 0] = 5.0

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError):
            DataSet([[0.0], [1.0]], [0.0])
        with pytest.raises(ValueError):
            DataSet([[np.nan]], [0.0])
        with pytest.raises(ValueError):
            DataSet([[0.0]], [np.inf])

    def test_1d_input_promoted_to_column(self):
        d = DataSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert d.inputs.shape == (3, 1)


class TestPosterior:
    def test_empty_model_prior(self):
        gp = GpModel.empty(KernelConfig(signal_variance=0.5), noise_variance=0.1, dim=1)
        p = gp.posterior([3.0])
        assert p.mean == 0.0
        assert p.variance == pytest.approx(0.6, abs=1e-15)

    def test_single_point_closed_form(self):
        # a=1, sigma=0.1, jitter=0: C=[[1.1]], query at the training input
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        p = gp.posterior([0.0])
        assert p.mean == pytest.approx(MEAN_SELF, abs=1e-14)
        assert p.variance == pytest.approx(VAR_SELF, abs=1e-14)

    def test_far_query_reverts_to_prior(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        p = gp.posterior([40.0])
        assert p.mean == pytest.approx(0.0, abs=1e-12)
        assert p.variance == pytest.approx(1.1, abs=1e-12)

    def test_noise_free_model_interpolates(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0, jitter=1e-9)
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(6, 1))
        y = np.sin(X[:, 0])
        gp = GpModel(kern, 0.0, DataSet(X, y))
        means, variances = gp.posterior_batch(X)
        assert_allclose(means, y, atol=1e-6)
        assert np.all(variances <= 1e-4)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            M = rng.integers(1, 9)
            d = rng.integers(1, 4)
            kern = KernelConfig(
                signal_variance=float(rng.uniform(0.2, 2.0)),
                length_scale=float(rng.uniform(0.5, 2.0)),
                jitter=0.0,
            )
            noise = float(rng.uniform(0.01, 0.5))
            X = rng.uniform(-2, 2, size=(M, d))
            y = rng.normal(size=M)
            q = rng.uniform(-2, 2, size=d)
            gp = GpModel(kern, noise, DataSet(X, y))
            p = gp.posterior(q)
            mean_ref, var_ref = reference_posterior(kern, noise, X, y, q)
            assert p.mean == pytest.approx(mean_ref, abs=1e-10)
            assert p.variance == pytest.approx(var_ref, abs=1e-10)

    def test_batch_matches_single(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=0.8)
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(5, 2))
        gp = GpModel(kern, 0.05, DataSet(X, rng.normal(size=5)))
        Q = rng.uniform(-1, 1, size=(7, 2))
        means, variances = gp.posterior_batch(Q)
        for i in range(7):
            p = gp.posterior(Q[i])
            assert means[i] == pytest.approx(p.mean, abs=1e-14)
            assert variances[i] == pytest.approx(p.variance, abs=1e-14)

    def test_variance_clamped_to_prior_band(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, size=(8, 1))
        gp = GpModel(kern, 1e-6, DataSet(X, rng.normal(size=8)))
        _, variances = gp.posterior_batch(rng.uniform(-5, 5, size=(100, 1)))
        assert np.all(variances >= 0.0)
        assert np.all(variances <= gp.prior_variance + 1e-15)

    def test_dimension_mismatch_rejected(self):
        gp = GpModel.empty(KernelConfig(), 0.1, dim=2)
        with pytest.raises(ValueError):
            gp.posterior([1.0])
        with pytest.raises(ValueError):
            gp.posterior([1.0, 2.0, 3.0])

    def test_non_finite_query_rejected(self):
        gp = GpModel.empty(KernelConfig(), 0.1, dim=1)
        with pytest.raises(ValueError):
            gp.posterior([np.nan])


class TestIncrementalUpdate:
    def test_matches_fresh_factorization(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
        rng = np.random.default_rng(21)
        for _ in range(20):
            gp = GpModel.empty(kern, 0.05, dim=2)
            pts = rng.uniform(-2, 2, size=(10, 2))
            ys = rng.normal(size=10)
            for x, y in zip(pts, ys):
                gp = gp.with_observation(x, y)
            fresh = GpModel(kern, 0.05, DataSet(pts, ys))
            q = rng.uniform(-2, 2, size=2)
            inc, ref = gp.posterior(q), fresh.posterior(q)
            assert inc.mean == pytest.approx(ref.mean, abs=1e-10)
            assert inc.variance == pytest.approx(ref.variance, abs=1e-10)
            assert gp.log_det() == pytest.approx(fresh.log_det(), abs=1e-10)

    def test_original_model_unchanged(self):
        kern = KernelConfig()
        gp0 = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        before = gp0.posterior([0.5])
        gp1 = gp0.with_observation([0.5], -1.0)
        after = gp0.posterior([0.5])
        assert before == after
        assert len(gp1.data) == 2 and len(gp0.data) == 1

    def test_variance_never_increases_with_data(self):
        # conditioning on one more point can only shrink predictive variance
        rng = np.random.default_rng(22)
        for _ in range(50):
            kern = KernelConfig(
                signal_variance=float(rng.uniform(0.2, 2.0)),
                length_scale=float(rng.uniform(0.5, 2.0)),
            )
            gp = GpModel.empty(kern, float(rng.uniform(0.01, 0.5)), dim=1)
            probes = rng.uniform(-3, 3, size=(10, 1))
            _, prev = gp.posterior_batch(probes)
            for _ in range(6):
                gp = gp.with_observation(rng.uniform(-3, 3, size=1), rng.normal())
                _, cur = gp.posterior_batch(probes)
                assert np.all(cur <= prev + 1e-9)
                prev = cur


class TestLogDet:
    def test_empty_model(self):
        gp = GpModel.empty(KernelConfig(), 0.1, dim=1)
        assert gp.log_det() == 0.0

    def test_two_point_frozen_value(self):
        # a=1, l=1, sigma=0.1, inputs at distance 1: det = 1.21 - exp(-1)
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.1, DataSet([[0.0], [1.0]], [0.0, 0.0]))
        assert gp.log_det() == pytest.approx(LOGDET_PAIR, abs=1e-14)

    def test_matches_slogdet(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            M = rng.integers(1, 8)
            kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
            X = rng.uniform(-2, 2, size=(M, 2))
            gp = GpModel(kern, 0.1, DataSet(X, rng.normal(size=M)))
            sign, ref = np.linalg.slogdet(gp.covariance_matrix())
            assert sign == 1.0
            assert gp.log_det() == pytest.approx(ref, abs=1e-10)


class TestExtendedLogDet:
    def test_empty_model_single_border(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel.empty(kern, 0.1, dim=1)
        assert gp.extended_log_det([[7.0]]) == pytest.approx(np.log(1.1), abs=1e-14)

    def test_matches_assembled_matrix(self):
        # border the dense covariance by hand, slogdet it, compare
        rng = np.random.default_rng(32)
        for _ in range(100):
            M = rng.integers(0, 7)
            p = rng.integers(1, 4)
            kern = KernelConfig(
                signal_variance=float(rng.uniform(0.2, 1.5)),
                length_scale=float(rng.uniform(0.5, 2.0)),
                jitter=0.0,
            )
            noise = float(rng.uniform(0.05, 0.5))
            X = rng.uniform(-2, 2, size=(M, 2))
            borders = rng.uniform(-2, 2, size=(p, 2))
            gp = GpModel(kern, noise, DataSet(X, rng.normal(size=M), dim=2))
            allpts = np.vstack([X, borders])
            full = kern.cross(allpts, allpts)
            full[np.diag_indices(M + p)] += noise
            sign, ref = np.linalg.slogdet(full)
            assert sign == 1.0
            assert gp.extended_log_det(borders) == pytest.approx(ref, abs=1e-10)
            schur = full[M:, M:] - full[M:, :M] @ np.linalg.solve(full[:M, :M], full[:M, M:])
            assert np.allclose(gp.schur_complement(borders), schur, rtol=0, atol=1e-10)

    def test_consistent_with_observation_append(self):
        # the bordered log-det equals log_det after absorbing the probe
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
        rng = np.random.default_rng(33)
        gp = GpModel(kern, 0.1, DataSet(rng.uniform(-1, 1, size=(4, 1)), rng.normal(size=4)))
        probe = np.array([0.3])
        grown = gp.with_observation(probe, 0.0)
        assert gp.extended_log_det(probe[None, :]) == pytest.approx(
            grown.log_det(), abs=1e-10
        )

    def test_duplicate_border_without_noise_raises(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel.empty(kern, 0.0, dim=1)
        with pytest.raises(FactorizationError):
            gp.extended_log_det([[1.0], [1.0]])


class TestFactorizationError:
    def test_duplicate_inputs_named_in_message(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        data = DataSet([[0.5], [2.0], [0.5]], [1.0, 2.0, 3.0])
        with pytest.raises(FactorizationError, match=r"\(0, 2\)"):
            GpModel(kern, 0.0, data)

    def test_noise_rescues_duplicates(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        data = DataSet([[0.5], [0.5]], [1.0, 3.0])
        gp = GpModel(kern, 0.1, data)
        # the posterior averages the two conflicting targets
        assert gp.posterior([0.5]).mean == pytest.approx(2.0 * 2.0 / 2.1, abs=1e-12)


class TestGaussianEntropy:
    def test_standard_normal(self):
        assert gaussian_entropy(1, 0.0) == pytest.approx(ENTROPY_1D, abs=1e-15)

    def test_dimension_scales_additively(self):
        assert gaussian_entropy(2, 0.0) == pytest.approx(ENTROPY_2D, abs=1e-15)

    def test_log_det_enters_halved(self):
        assert gaussian_entropy(1, 2.0) == pytest.approx(ENTROPY_1D + 1.0, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_entropy(0, 0.0)
        with pytest.raises(ValueError):
            gaussian_entropy(1, np.inf)
