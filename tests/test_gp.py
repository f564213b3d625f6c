"""GP regression layer: kernel, data set, posterior, bordered log-dets."""

import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualgp import control
from dualgp import gp as gp_module
from dualgp.config import resolve_config
from dualgp.gp import (
    DataSet,
    FactorizationError,
    GpModel,
    KernelConfig,
    solve_triangular,
)
from dualgp.harness import build_action_set, run_scenario
from dualgp.info import select_exhaustive

# frozen reference values, computed from the closed forms with numpy
EXP_HALF = 0.6065306597126334       # exp(-0.5)
MEAN_SELF = 0.9090909090909091      # 1 / 1.1
VAR_SELF = 0.19090909090909103      # 1.1 - 1/1.1
LOGDET_PAIR = -0.17183209348270312  # ln(1.21 - exp(-1))


_NOISE_FREE_MODELS = {}


def noise_free_model(M):
    """A noise-free 2-D model of M seeded points; |alpha| is large, so another sum order moves bits."""
    if M not in _NOISE_FREE_MODELS:
        rng = np.random.default_rng(M)
        data = DataSet(rng.uniform(-2, 2, size=(M, 2)), rng.normal(size=M))
        _NOISE_FREE_MODELS[M] = GpModel(KernelConfig(signal_variance=0.7), 0.0, data)
    return _NOISE_FREE_MODELS[M]


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


def dense_gram(kernel, A, B):
    """Kernel matrix between two point sets from one broadcast, no shared code path."""
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)
    return kernel.signal_variance * np.exp(-0.5 * d2 / kernel.length_scale**2)


def dense_posterior(kernel, noise, X, y, Q):
    """Means, variances and ln det from one dense covariance and numpy solves."""
    C = dense_gram(kernel, X, X) + (noise + kernel.jitter) * np.eye(len(X))
    k = dense_gram(kernel, X, Q)
    means = k.T @ np.linalg.solve(C, y)
    variances = kernel.signal_variance + noise - np.sum(k * np.linalg.solve(C, k), axis=0)
    return means, variances, np.linalg.slogdet(C)[1]


@pytest.fixture
def solve_calls(monkeypatch):
    """Right-hand-side shapes of every triangular solve made through dualgp.gp."""
    calls = []
    solve = gp_module.solve_triangular

    def counted(chol, rhs, trans=False, overwrite_b=False):
        calls.append(np.shape(rhs))
        return solve(chol, rhs, trans, overwrite_b)

    monkeypatch.setattr(gp_module, "solve_triangular", counted)
    return calls


def parent_and_point(rng, dim, noise, M):
    """A builder of identical M-point models with room to append in place, and a new pair."""
    kern = KernelConfig(signal_variance=float(rng.uniform(0.3, 1.5)),
                        length_scale=float(rng.uniform(0.3, 1.0)))
    X = rng.uniform(-3, 3, size=(M + 1, dim))
    y = rng.normal(size=M + 1)

    def build():
        model = GpModel(kern, noise, DataSet(X[: M - 1], y[: M - 1]))
        return model.with_observation(X[M - 1], y[M - 1])

    return build, X[M], y[M]


def assert_same_bits(grown, fresh, probes):
    """Two models of one data set hold equal factor rows and alpha, and answer equally."""
    M = len(fresh.data)
    assert np.array_equal(grown._chol[:, :M], fresh._chol)
    assert np.array_equal(grown._alpha, fresh._alpha)
    assert grown.log_det() == fresh.log_det()
    assert np.array_equal(grown.posterior_batch(probes), fresh.posterior_batch(probes))


@st.composite
def separated_problem(draw, max_points=120):
    """A kernel, a noise level and up to max_points training pairs spaced on the length scale."""
    dim = draw(st.integers(1, 3))
    noise = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.3)))
    kern = KernelConfig(signal_variance=draw(st.floats(0.2, 2.0)),
                        length_scale=draw(st.floats(0.2, 2.0)))
    m = draw(st.integers(1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a gap of 0.7 length scales keeps the noise-free covariance well conditioned;
    # dart throwing in a box about twice as wide as m points at that gap need
    gap = 0.7 * kern.length_scale
    half = gap * m ** (1.0 / dim)
    X = np.empty((0, dim))
    while len(X) < m:
        x = rng.uniform(-half, half, size=dim)
        if len(X) == 0 or np.min(np.sum((X - x) ** 2, axis=1)) > gap**2:
            X = np.vstack([X, x])
    probes = rng.uniform(-half, half, size=(25, dim))
    return kern, noise, X, rng.normal(size=m), probes


class TestKernel:
    def test_value_at_zero_distance_is_signal_variance(self):
        k = KernelConfig(signal_variance=0.5, length_scale=2.0)
        assert k.cross([1.0, -3.0], [1.0, -3.0])[0, 0] == pytest.approx(0.5)

    def test_unit_kernel_at_unit_distance(self):
        k = KernelConfig(signal_variance=1.0, length_scale=1.0)
        assert k.cross([0.0], [1.0])[0, 0] == pytest.approx(EXP_HALF, abs=1e-15)

    def test_length_scale_rescales_distance(self):
        k = KernelConfig(signal_variance=1.0, length_scale=2.0)
        assert k.cross([0.0], [2.0])[0, 0] == pytest.approx(EXP_HALF, abs=1e-15)

    def test_symmetry_and_bounds(self):
        k = KernelConfig(signal_variance=0.7, length_scale=0.9)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.normal(size=(2, 3))
            assert k.cross(p, q)[0, 0] == pytest.approx(k.cross(q, p)[0, 0], abs=1e-15)
            assert 0.0 < k.cross(p, q)[0, 0] <= 0.7 + 1e-15

    def test_cross_matches_scalar(self):
        a, l = 0.5, 1.3
        k = KernelConfig(signal_variance=a, length_scale=l)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(4, 2))
        cols = rng.normal(size=(3, 2))
        out = k.cross(rows, cols)
        assert out.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                # a exp(-||p - q||^2 / (2 l^2)), one pair at a time
                closed = a * np.exp(-np.sum((rows[i] - cols[j]) ** 2) / (2 * l**2))
                assert out[i, j] == pytest.approx(closed, abs=1e-15)

    @pytest.mark.parametrize("rows,cols", [((3, 1), (2, 2)), ((3, 2), (2, 1)), ((1, 2), (1, 1))])
    def test_cross_rejects_mismatched_dimensions(self, rows, cols):
        # a kernel of the shared coordinates alone would be a silent wrong answer
        k = KernelConfig()
        with pytest.raises(ValueError, match=rf"^point sets have dimensions {rows[1]} and {cols[1]}$"):
            k.cross(np.zeros(rows), np.ones(cols))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"signal_variance": 0.0},
            {"signal_variance": -1.0},
            {"length_scale": 0.0},
            {"jitter": -1e-9},
            {"signal_variance": np.inf},
            {"signal_variance": np.nan},
            {"length_scale": np.inf},
            {"length_scale": np.nan},
            {"jitter": np.inf},
            {"jitter": np.nan},
            {"length_scale": 1.35e154},
            {"length_scale": 1e155},
            {"length_scale": 1.5e-162},
            {"length_scale": 1e-170},
            {"length_scale": -1e-170},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)

    def test_largest_length_scale_kept(self):
        # the kernel divides by l * l: 1.35e154 and above are rejected, since every
        # cross then raised OverflowError; 1.34e154 squares to a finite 1.7956e308
        scale = 1.34e154
        k = KernelConfig(signal_variance=0.5, length_scale=scale)
        assert k.cross([[0.0], [3.0]], [[1.0]]).tolist() == [[0.5], [0.5]]

    def test_smallest_length_scale_kept(self):
        # 1.6e-162 squares to the least subnormal, 1.5e-162 to 0; -d2 / (2 l^2)
        # overflows to -inf at any distance, and the kernel value is 0 there
        k = KernelConfig(signal_variance=0.5, length_scale=1.6e-162)
        assert k.cross([[0.0], [1.0]], [[0.0]]).tolist() == [[0.5], [0.0]]

    def test_far_points_have_kernel_value_zero(self):
        # d2 = 1e308 is finite, d2 / (2 l^2) at l = 0.25 is not
        k = KernelConfig(signal_variance=0.5, length_scale=0.25)
        assert k.cross([[0.0], [1e154]], [[0.0]]).tolist() == [[0.5], [0.0]]


# any finite float, the largest included, so that differences and squares overflow
WIDE = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


def head_sq_dist(rows, cols):
    """The squared distances as first written: a zero block plus every dimension's square."""
    d2 = np.zeros((rows.shape[0], cols.shape[0]))
    for j in range(rows.shape[1]):
        d2 += (rows[:, j, None] - cols[None, :, j]) ** 2
    return d2


@st.composite
def point_pair(draw):
    """Two point sets of one dimension, coordinates from WIDE or near the origin."""
    dim, n, m = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    coords = st.one_of(WIDE, st.floats(-3.0, 3.0))
    rows = np.array(draw(st.lists(coords, min_size=n * dim, max_size=n * dim)), dtype=float)
    cols = np.array(draw(st.lists(coords, min_size=m * dim, max_size=m * dim)), dtype=float)
    return rows.reshape(n, dim), cols.reshape(m, dim)


class TestKernelHelpers:
    @settings(max_examples=300)
    # l over the scales KernelConfig accepts, whose square is nonzero and finite
    @given(point_pair(), st.floats(1e-300, 1e300), st.floats(1.6e-162, 1.34e154))
    def test_same_bits_as_the_first_formulas(self, pair, a, l):
        # the in-place helpers against a * exp(-0.5 * d2 / l^2) over a zero-started sum
        rows, cols = pair
        kern = KernelConfig(signal_variance=a, length_scale=l)
        with np.errstate(all="ignore"):
            d2, want_d2 = gp_module._sq_dist(rows, cols), head_sq_dist(rows, cols)
            got, want = kern._from_sq_dist(d2), a * np.exp(-0.5 * want_d2 / l**2)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert d2.tobytes() == want_d2.tobytes()  # the kernel values leave d2 as it was


class TestDataSet:
    def test_empty_needs_dim(self):
        # an empty (0, d) array says its d; 1-D empty input and an (n, 0) array do not
        d = DataSet(np.zeros((0, 2)), [])
        assert len(d) == 0 and d.dim == 2
        with pytest.raises(ValueError, match="inputs are empty and no dimension was given"):
            DataSet([], [])
        with pytest.raises(ValueError, match=r"inputs have no dimension, got shape \(2, 0\)"):
            DataSet(np.zeros((2, 0)), [1, 2])

    def test_append_returns_new_value(self):
        # a model's data grows only through with_observation, as a new value
        gp0 = GpModel.empty(KernelConfig(), 0.1, 1)
        d0, d1 = gp0.data, gp0.with_observation([0.5], 1.0).data
        assert len(d0) == 0 and len(d1) == 1
        assert d1.inputs[0, 0] == 0.5 and d1.targets[0] == 1.0
        assert not d1.inputs.flags.writeable and not d1.targets.flags.writeable

    @pytest.mark.parametrize("x,y,message", [
        ([0.1, 0.2], np.nan, "targets contain non-finite values"),
        ([0.1, 0.2], -np.inf, "targets contain non-finite values"),
        ([0.1, np.inf], 1.0, "points contain non-finite values"),
        ([0.1, 0.2, 0.3], 1.0, "points have dimension 3, expected 2"),
        ([[0.1, 0.2]], 1.0, r"a point must be a nonempty vector, got shape \(1, 2\)"),
    ])
    def test_append_checks_the_new_pair(self, x, y, message):
        # only the new pair is checked; a rejected one leaves the set and its model as they were
        data = DataSet([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
        snapshot = data.inputs.tobytes(), data.targets.tobytes()
        gp = GpModel(KernelConfig(), 0.1, data)
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        before = gp.posterior_batch(q)
        with pytest.raises(ValueError, match=message):
            gp.with_observation(x, y)
        assert (data.inputs.tobytes(), data.targets.tobytes()) == snapshot
        assert gp.data is data and len(gp._spare) == 1
        after = gp.posterior_batch(q)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()

    def test_caller_arrays_are_copied(self):
        # the set copies its arrays: the caller's stay writable, and a later write
        # to them changes neither the stored targets nor the model solved from them
        X, y = np.array([[0.0], [1.0]]), np.array([1.0, 2.0])
        gp = GpModel(KernelConfig(), 0.1, DataSet(X, y))
        before = gp.posterior_batch([[0.5]])[0].tobytes()
        X[0, 0], y[0] = 5.0, -3.0
        assert X.flags.writeable and y.flags.writeable
        assert gp.data.inputs.tolist() == [[0.0], [1.0]] and gp.data.targets.tolist() == [1.0, 2.0]
        assert gp.posterior_batch([[0.5]])[0].tobytes() == before

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
        (mean,), (variance,) = gp.posterior_batch([3.0])
        assert mean == 0.0
        assert variance == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("noise", [-0.1, np.inf, np.nan])
    def test_noise_variance_must_be_finite_and_non_negative(self, noise):
        # the config's bound on noise_variance; an infinite one made the
        # prior variance inf and the first append unfactorizable
        with pytest.raises(ValueError, match="^noise_variance must be finite and >= 0"):
            GpModel.empty(KernelConfig(), noise, 1)

    def test_single_point_closed_form(self):
        # a=1, sigma=0.1, jitter=0: C=[[1.1]], query at the training input
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        (mean,), (variance,) = gp.posterior_batch([0.0])
        assert mean == pytest.approx(MEAN_SELF, abs=1e-14)
        assert variance == pytest.approx(VAR_SELF, abs=1e-14)

    def test_far_query_reverts_to_prior(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        (mean,), (variance,) = gp.posterior_batch([40.0])
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert variance == pytest.approx(1.1, abs=1e-12)

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
            (mean,), (variance,) = gp.posterior_batch(q[None, :])
            mean_ref, var_ref = reference_posterior(kern, noise, X, y, q)
            assert mean == pytest.approx(mean_ref, abs=1e-10)
            assert variance == pytest.approx(var_ref, abs=1e-10)

    def test_batch_matches_single(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=0.8)
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(5, 2))
        gp = GpModel(kern, 0.05, DataSet(X, rng.normal(size=5)))
        Q = rng.uniform(-1, 1, size=(7, 2))
        means, variances = gp.posterior_batch(Q)
        for i in range(7):
            (mean,), (variance,) = gp.posterior_batch(Q[i][None, :])
            assert means[i] == pytest.approx(mean, abs=1e-14)
            assert variances[i] == pytest.approx(variance, abs=1e-14)

    def test_variance_clamped_to_prior_band(self):
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, size=(8, 1))
        gp = GpModel(kern, 1e-6, DataSet(X, rng.normal(size=8)))
        _, variances = gp.posterior_batch(rng.uniform(-5, 5, size=(100, 1)))
        assert np.all(variances >= 0.0)
        assert np.all(variances <= gp.prior_variance + 1e-15)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("distinct", [1, 5, 101])
    def test_means_are_the_per_row_product(self, dim, distinct):
        # noise-free, so |alpha| is large and any other BLAS path moves the last bits
        rng = np.random.default_rng(16)
        X = rng.uniform(-2, 2, size=(300, dim))
        gp = GpModel(KernelConfig(signal_variance=0.7), 0.0, DataSet(X, rng.normal(size=300)))
        rows = rng.uniform(-2, 2, size=(distinct, dim))
        Q = rows if distinct == 101 else rows[rng.integers(0, distinct, size=101)]
        means, _ = gp.posterior_batch(Q)
        assert means.tobytes() == (gp.kernel.cross(X, Q).T @ gp._alpha).tobytes()

    @settings(max_examples=30)
    @given(st.integers(1, 1100), st.integers(1, 130), st.integers(0, 2**32 - 1))
    def test_repeated_row_means_keep_the_n_row_bits(self, M, n, seed):
        # the (4 + n mod 4)-row product against the n-row one it stands for, for
        # n, n + 1, n + 2 and n + 3 copies: every residue mod 4 on one model
        gp = noise_free_model(M)
        row = np.random.default_rng(seed).uniform(-2, 2, size=(1, 2))
        k = gp.kernel.cross(gp.data.inputs, row)
        for copies in range(n, n + 4):
            means, _ = gp.posterior_batch(np.repeat(row, copies, axis=0))
            assert means.tobytes() == (np.repeat(k, copies, axis=1).T @ gp._alpha).tobytes()

    def test_repeated_row_means_above_4096_copies(self):
        # the same bits above 4096 copies, in a fresh interpreter with one BLAS thread.
        # With more, OpenBLAS splits an n-row product this large between its threads
        # and each share ends in tail rows of its own, so the reference's bits there
        # depend on the thread count (the small product stays single-threaded)
        script = (
            "import numpy as np\n"
            "from dualgp.gp import DataSet, GpModel, KernelConfig\n"
            "rng = np.random.default_rng(1100)\n"
            "data = DataSet(rng.uniform(-2, 2, size=(1100, 2)), rng.normal(size=1100))\n"
            "gp, row = GpModel(KernelConfig(signal_variance=0.7), 0.0, data), np.array([[0.3, -0.7]])\n"
            "k = gp.kernel.cross(gp.data.inputs, row)\n"
            "for n in range(4097, 4101):\n"
            "    means, _ = gp.posterior_batch(np.repeat(row, n, axis=0))\n"
            "    assert means.tobytes() == (np.repeat(k, n, axis=1).T @ gp._alpha).tobytes(), n\n"
        )
        src = os.path.dirname(os.path.dirname(gp_module.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_repeated_rows_share_one_variance(self):
        kern = KernelConfig(signal_variance=0.8, length_scale=0.9, jitter=0.0)
        rng = np.random.default_rng(17)
        X = rng.uniform(-2, 2, size=(8, 1))
        y = rng.normal(size=8)
        gp = GpModel(kern, 0.05, DataSet(X, y))
        Q = np.array([[0.3], [-1.0], [0.3], [0.3], [-1.0], [1.7]])
        means, variances = gp.posterior_batch(Q)
        for q, mean, var in zip(Q, means, variances):
            mean_ref, var_ref = reference_posterior(kern, 0.05, X, y, q)
            assert mean == pytest.approx(mean_ref, abs=1e-12)
            assert var == pytest.approx(var_ref, abs=1e-12)

    @settings(max_examples=40)
    @given(separated_problem(max_points=150), st.sampled_from(["repeated", "distinct", "mixed"]),
           st.lists(st.integers(0, 4), min_size=1, max_size=120))
    def test_rows_in_every_shape_match_a_dense_solve(self, problem, shape, picks):
        # one row repeated (additive control), all distinct (cart and black-box
        # action grids), or distinct rows with repeats (library callers)
        kern, noise, X, y, probes = problem
        gp = GpModel(kern, noise, DataSet(X, y))
        pick = {"repeated": np.full(len(picks), picks[0]),
                "distinct": np.arange(len(probes)),
                "mixed": np.array(picks + [0, 1, 0])}[shape]
        means, variances = gp.posterior_batch(probes[pick])
        ref_means, ref_vars, _ = dense_posterior(kern, noise, X, y, probes[pick])
        assert_allclose(means, ref_means, rtol=0, atol=1e-6)
        assert_allclose(variances, np.clip(ref_vars, 0.0, gp.prior_variance), rtol=0, atol=1e-8)
        for row in np.unique(pick):
            copies = pick == row
            assert_allclose(means[copies], means[copies][0], rtol=0, atol=1e-12)
            assert_allclose(variances[copies], variances[copies][0], rtol=0, atol=1e-12)

    def test_empty_batch(self):
        gp = GpModel(KernelConfig(), 0.1, DataSet([[0.0, 1.0]], [0.5]))
        means, variances = gp.posterior_batch(np.zeros((0, 2)))
        assert means.shape == variances.shape == (0,)

    @pytest.mark.parametrize("points,shape", [
        (np.zeros((3, 0)), (3, 0)),
        ([], (1, 0)),  # a 1-D argument is one point, here one with no coordinates
        ([[], []], (2, 0)),
    ])
    def test_rows_without_coordinates_rejected(self, points, shape):
        # only an input with no rows takes the model's dimension
        gp = GpModel(KernelConfig(), 0.1, DataSet([[0.0, 1.0]], [0.5]))
        message = re.escape(f"query points have no dimension, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            gp.posterior_batch(points)

    def test_dimension_mismatch_rejected(self):
        gp = GpModel.empty(KernelConfig(), 0.1, dim=2)
        with pytest.raises(ValueError, match="points have dimension 1, expected 2"):
            gp.posterior_batch([1.0])
        with pytest.raises(ValueError, match="points have dimension 3, expected 2"):
            gp.posterior_batch([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"must be an \(n, d\) array, got shape \(1, 1, 2\)"):
            gp.posterior_batch([[[1.0, 2.0]]])

    def test_non_finite_query_rejected(self):
        gp = GpModel.empty(KernelConfig(), 0.1, dim=1)
        with pytest.raises(ValueError, match="points contain non-finite values"):
            gp.posterior_batch([np.nan])


class TestSolveTriangular:
    def test_same_bits_as_scipy(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(-2, 2, size=(60, 1))
        chol = np.linalg.cholesky(GpModel(KernelConfig(), 0.0, DataSet(X, np.zeros(60)))
                                  .covariance_matrix())
        for rhs in (rng.normal(size=60), rng.normal(size=(60, 7))):
            for trans in (False, True):
                expected = scipy.linalg.solve_triangular(chol, rhs, lower=True, trans=int(trans))
                assert solve_triangular(chol, rhs, trans=trans).tobytes() == expected.tobytes()

    @settings(max_examples=150)
    @given(st.integers(1, 300), st.floats(0.0, 1.0), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_buffer_rows_match_a_dense_factor(self, M, spare, cols, trans, seed):
        # the first M rows of a (cap, cap) buffer, cap in [M, 2M + 1], with huge
        # values above the diagonal and past column M that no solve may read
        cap = M + round(spare * (M + 1))
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(M, M))
        dense = np.linalg.cholesky(b @ b.T / M + np.eye(M))
        buf = 1e6 * rng.normal(size=(cap, cap))
        buf[:M, :M][np.tril_indices(M)] = dense[np.tril_indices(M)]
        rhs = rng.normal(size=(M, cols))
        got = solve_triangular(buf[:M], rhs, trans=trans)
        # dtrtrs on the contiguous factor, called as scipy.linalg.solve_triangular
        # calls it for a C-ordered lower factor
        trtrs = scipy.linalg.get_lapack_funcs("trtrs", (dense,))
        expected, info = trtrs(dense.T, rhs, lower=False, trans=not trans)
        assert info == 0
        assert got.tobytes() == expected.tobytes()
        exact = np.linalg.solve(dense.T if trans else dense, rhs)
        assert np.linalg.norm(got - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_zero_diagonal_raises(self):
        chol = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(FactorizationError, match="info 2"):
            solve_triangular(chol, np.ones(2))

    def test_missing_lapack_extension_names_the_directory(self, tmp_path):
        with pytest.raises(ImportError, match=re.escape(f"_flapack is not in {tmp_path}")):
            gp_module._flapack(str(tmp_path))


class TestSolveCounts:
    @pytest.mark.parametrize("scenario,first,later", [
        # additive control: the append reuses the column its one-row query solved,
        # so a step is one query solve and the two solves for alpha
        ("logistic_linear", 2, 3),
        # 21 and 101 distinct rows are solved in one batch; the append solves its own
        ("cart_dual", 2, 4),
        ("logistic_nonlinear", 4, 4),
    ])
    def test_solves_per_step(self, monkeypatch, solve_calls, scenario, first, later):
        # counted, not timed: the solves made between one action selection and the next
        marks = []
        select = control.select_action

        def marked(*args, **kwargs):
            marks.append(len(solve_calls))
            return select(*args, **kwargs)

        monkeypatch.setattr(control, "select_action", marked)
        result = run_scenario(resolve_config({"scenario": scenario, "steps": 50}))
        assert result.aborted is None
        per_step = np.diff(marks + [len(solve_calls)]).tolist()
        assert per_step == [first] + [later] * 49

    @pytest.mark.parametrize("M", [1, 2, 30])
    def test_a_model_built_from_M_rows_makes_M_plus_1_solves(self, solve_calls, M):
        # one per row after the first, as its append would, then two for alpha
        rng = np.random.default_rng(M)
        GpModel(KernelConfig(), 0.01, DataSet(rng.uniform(-3, 3, size=(M, 2)), rng.normal(size=M)))
        assert solve_calls == [(m,) for m in range(1, M)] + [(M,), (M,)]


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
            # the constructor appends its rows by the same rule: equal bits
            fresh = GpModel(kern, 0.05, DataSet(pts, ys))
            assert_same_bits(gp, fresh, rng.uniform(-2, 2, size=(1, 2)))

    @settings(max_examples=40)
    @given(separated_problem(), st.sampled_from(["none", "appended", "other"]))
    def test_append_chain_matches_a_fresh_model(self, problem, query):
        # a one-row query of the appended row hands the append its solved column;
        # a query of another row must not
        kern, noise, X, y, probes = problem
        gp = GpModel.empty(kern, noise, dim=X.shape[1])
        for x, t in zip(X, y):
            if query != "none":
                gp.posterior_batch((x if query == "appended" else probes[0])[None, :])
            gp = gp.with_observation(x, t)
        assert_same_bits(gp, GpModel(kern, noise, DataSet(X, y)), probes)

    def test_original_model_unchanged(self):
        kern = KernelConfig()
        gp0 = GpModel(kern, 0.1, DataSet([[0.0]], [1.0]))
        before = gp0.posterior_batch([0.5])
        gp1 = gp0.with_observation([0.5], -1.0)
        after = gp0.posterior_batch([0.5])
        assert np.array_equal(before, after)
        assert len(gp1.data) == 2 and len(gp0.data) == 1

    def test_branching_appends_are_independent(self):
        # the parent wrote its last row in place, so one child appends in place and
        # the other must copy; neither may see the other's row
        kern = KernelConfig(signal_variance=0.8, length_scale=0.7)
        rng = np.random.default_rng(23)
        X = rng.uniform(-2, 2, size=(22, 2))
        y = rng.normal(size=22)
        parent = GpModel.empty(kern, 0.05, dim=2)
        for x, t in zip(X[:20], y[:20]):
            parent = parent.with_observation(x, t)
        Q = rng.uniform(-2, 2, size=(9, 2))
        before = parent.posterior_batch(Q)
        children = [parent.with_observation(X[i], y[i]) for i in (20, 21)]
        # grow each child further, so both buffers are written after the branch
        swapped = zip(children, X[20:][::-1], y[20:][::-1])
        grown = [child.with_observation(x, t) for child, x, t in swapped]
        after = parent.posterior_batch(Q)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()
        for i, child in zip((20, 21), children):
            idx = list(range(20)) + [i]
            fresh = GpModel(kern, 0.05, DataSet(X[idx], y[idx]))
            means, variances = child.posterior_batch(Q)
            ref_means, ref_vars, ref_logdet = dense_posterior(kern, 0.05, X[idx], y[idx], Q)
            assert_allclose(means, fresh.posterior_batch(Q)[0], atol=1e-10)
            assert_allclose(variances, fresh.posterior_batch(Q)[1], atol=1e-10)
            assert_allclose(means, ref_means, atol=1e-9)
            assert_allclose(variances, ref_vars, atol=1e-9)
            assert child.log_det() == pytest.approx(ref_logdet, abs=1e-9)
        for model in grown:
            fresh = GpModel(kern, 0.05, model.data)
            assert_allclose(model.posterior_batch(Q)[0], fresh.posterior_batch(Q)[0], atol=1e-10)

    def test_concurrent_appends_to_one_model_are_independent(self):
        # eight threads append to one parent that has room: one may write in place,
        # the rest must copy, and no child may hold another's row
        kern = KernelConfig(signal_variance=0.8, length_scale=0.7)
        rng = np.random.default_rng(26)
        X = rng.uniform(-2, 2, size=(38, 2))
        y = rng.normal(size=38)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                parent = GpModel(kern, 0.05, DataSet(X[:29], y[:29]))
                parent = parent.with_observation(X[29], y[29])
                children = [None] * 8
                start = threading.Barrier(8)

                def append(i):
                    start.wait()
                    # each thread's query replaces the parent's solved row; an append
                    # may reuse only a column solved for its own row
                    parent.posterior_batch(np.repeat(X[30 + i][None, :], 3, axis=0))
                    children[i] = parent.with_observation(X[30 + i], y[30 + i])

                threads = [threading.Thread(target=append, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                for child in children:
                    fresh = GpModel(kern, 0.05, child.data)
                    assert_allclose(child._alpha, fresh._alpha, atol=1e-8)
        finally:
            sys.setswitchinterval(interval)

    def test_long_chain_crosses_capacity_doublings(self):
        kern = KernelConfig(signal_variance=0.6, length_scale=0.8)
        rng = np.random.default_rng(24)
        X = rng.uniform(-3, 3, size=(300, 2))
        y = rng.normal(size=300)
        Q = rng.uniform(-3, 3, size=(11, 2))
        checkpoints = {1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 300}
        gp = GpModel.empty(kern, 0.02, dim=2)
        for n, (x, t) in enumerate(zip(X, y), start=1):
            gp = gp.with_observation(x, t)
            if n in checkpoints:
                means, variances = gp.posterior_batch(Q)
                ref_means, ref_vars, ref_logdet = dense_posterior(kern, 0.02, X[:n], y[:n], Q)
                assert_allclose(means, ref_means, atol=1e-8)
                assert_allclose(variances, ref_vars, atol=1e-10)
                assert gp.log_det() == pytest.approx(ref_logdet, abs=1e-8)

    def test_append_does_not_copy_the_factor(self):
        # an append with spare capacity writes one row: O(M) bytes, not the 8 M^2 of a copy
        M = 500
        rng = np.random.default_rng(25)
        X = rng.uniform(-3, 3, size=(M + 1, 1))
        y = rng.normal(size=M + 1)
        kern = KernelConfig(length_scale=0.5)
        # built at M - 1 points, so the append to M moved the factor to a roomier buffer
        gp = GpModel(kern, 0.1, DataSet(X[: M - 1], y[: M - 1]))
        gp = gp.with_observation(X[M - 1], y[M - 1])
        gp.posterior_batch(X[:1])
        tracemalloc.start()
        try:
            grown = gp.with_observation(X[M], y[M])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grown.data) == M + 1
        assert peak < 8 * M * M / 20

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_append_reuses_the_queried_column(self, solve_calls, dim, noise):
        # additive control queries one row many times, then appends that row
        rng = np.random.default_rng(27 + 2 * dim + int(noise > 0))
        for M in (2, 17, 120, 300):
            build, x, t = parent_and_point(rng, dim, noise, M)
            queried = build()
            queried.posterior_batch(np.repeat(x[None, :], 101, axis=0))
            solve_calls.clear()
            child = queried.with_observation(x, t)
            assert solve_calls == [(M + 1,), (M + 1,)], M  # alpha only
            plain = build().with_observation(x, t)
            assert np.array_equal(child._chol[M, : M + 1], plain._chol[M, : M + 1]), M
            assert np.array_equal(child._alpha, plain._alpha), M

    @pytest.mark.parametrize("case", ["other_row", "child", "batch"])
    def test_append_solves_when_the_query_does_not_fit(self, solve_calls, case):
        rng = np.random.default_rng(28)
        build, x, t = parent_and_point(rng, 2, 0.0, 120)
        x0, t0 = rng.uniform(-3, 3, size=2), 0.4
        queried = build()
        if case == "batch":
            # 21 distinct rows solved in one call, the appended row first
            queried.posterior_batch(np.vstack([x, rng.uniform(-3, 3, size=(20, 2))]))
        else:
            queried.posterior_batch(np.repeat(x[None, :], 101, axis=0))
        if case == "other_row":
            queried.posterior_batch(x0[None, :])
        if case == "child":
            # the child has its own factor: the parent's solved column is not its own
            queried = queried.with_observation(x0, t0)
        solve_calls.clear()
        grown = queried.with_observation(x, t)
        n = len(grown.data)
        assert solve_calls == [(n - 1,), (n,), (n,)]
        plain = build().with_observation(x0, t0) if case == "child" else build()
        plain = plain.with_observation(x, t)
        assert np.array_equal(grown._chol[n - 1, :n], plain._chol[n - 1, :n])
        assert np.array_equal(grown._alpha, plain._alpha)

    @pytest.mark.parametrize("x", [[[0.1, 0.2]], [0.1, np.nan], [0.1], [0.1, 0.2, 0.3]])
    def test_bad_point_rejected(self, x):
        # 2-D, non-finite and wrong-dimension points; the model is left as it was
        gp = GpModel(KernelConfig(), 0.1, DataSet([[0.0, 0.0]], [1.0]))
        with pytest.raises(ValueError):
            gp.with_observation(x, 0.5)
        assert len(gp.data) == 1

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


def grown_model(rng, n, dim=2):
    """A model grown by n appends from empty, so its buffers have room for the next row."""
    X = rng.uniform(-2, 2, size=(n + 2, dim))
    y = rng.normal(size=n + 2)
    model = GpModel.empty(KernelConfig(signal_variance=0.8, length_scale=0.7), 0.05, dim=dim)
    for x, t in zip(X[:n], y[:n]):
        model = model.with_observation(x, t)
    return model, X[n:], y[n:]


class TestStorage:
    """The inputs and targets live in capacity-doubling buffers beside the factor."""

    def test_in_place_append_shares_the_buffer(self):
        # 5 points in a buffer of 7 rows: the next append writes row 5 in place
        model, X, y = grown_model(np.random.default_rng(60), 5)
        child = model.with_observation(X[0], y[0])
        _, inputs, targets = child._spare[0]  # the buffers the child's next append may write
        assert np.shares_memory(child.data.inputs, inputs)
        assert np.shares_memory(child.data.targets, targets)
        assert np.shares_memory(child.data.inputs, model.data.inputs)
        assert np.shares_memory(child.data.targets, model.data.targets)
        assert np.array_equal(child.data.inputs[:5], model.data.inputs)
        assert child.data.inputs[5].tobytes() == X[0].tobytes()
        assert child.data.targets[5] == y[0]

    def test_branching_append_copies(self):
        model, X, y = grown_model(np.random.default_rng(61), 5)
        first = model.with_observation(X[0], y[0])
        snapshot = first.data.inputs.tobytes(), first.data.targets.tobytes()
        second = model.with_observation(X[1], y[1])
        assert not np.shares_memory(second.data.inputs, first.data.inputs)
        assert not np.shares_memory(second.data.targets, first.data.targets)
        assert (first.data.inputs.tobytes(), first.data.targets.tobytes()) == snapshot
        assert np.array_equal(second.data.inputs[:5], model.data.inputs)
        assert second.data.inputs[5].tobytes() == X[1].tobytes()
        assert second.data.targets[5] == y[1]

    def test_views_are_read_only(self):
        model, X, y = grown_model(np.random.default_rng(62), 5)
        for data in (model.data, model.with_observation(X[0], y[0]).data):
            assert not data.inputs.flags.writeable and not data.targets.flags.writeable
            with pytest.raises(ValueError):
                data.inputs[0, 0] = 5.0
            with pytest.raises(ValueError):
                data.targets[0] = 5.0

    def test_queries_and_appends_keep_stored_and_caller_bytes(self):
        # the solves that overwrite their right-hand side own it; stored rows and
        # the caller's arrays keep their bytes
        rng = np.random.default_rng(63)
        X, y = rng.uniform(-2, 2, size=(9, 2)), rng.normal(size=9)
        data = DataSet(X, y)
        model = GpModel(KernelConfig(signal_variance=0.8, length_scale=0.7), 0.05, data)
        grown = model.with_observation(rng.uniform(-2, 2, size=2), 0.3)
        row = rng.uniform(-2, 2, size=(1, 2))
        repeated, rows = np.repeat(row, 4, axis=0), rng.uniform(-2, 2, size=(4, 2))
        args = [X, y, repeated, rows]
        owned = [m.data.inputs for m in (model, grown)] + [m.data.targets for m in (model, grown)]
        before = [a.tobytes() for a in args + owned]
        for m in (model, grown):
            m.posterior_batch(repeated)
            m.posterior_batch(rows)
            m.with_observation(row[0], 0.1)  # reuses the repeated query's column
            m.with_observation(rows[0], 0.2)  # a branch, solved afresh
        select_exhaustive(grown, rows)
        assert [a.tobytes() for a in args + owned] == before


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


class TestFactorizationError:
    def test_duplicate_inputs_named_in_message(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        data = DataSet([[0.5], [2.0], [0.5]], [1.0, 2.0, 3.0])
        with pytest.raises(FactorizationError, match=r"\(0, 2\)"):
            GpModel(kern, 0.0, data)

    @pytest.mark.parametrize("signal_variance", [0.3, 0.5, 0.7, 1.0])
    def test_repeated_append_without_noise_raises(self, signal_variance):
        # the last pivot is 0 in exact arithmetic, whatever round-off leaves of it;
        # a model built from the two rows appends the second by the same rule
        kern = KernelConfig(signal_variance=signal_variance, length_scale=1.0, jitter=0.0)
        gp = GpModel.empty(kern, 0.0, dim=1).with_observation([0.5], 1.0)
        with pytest.raises(FactorizationError, match=r"\(0, 1\)"):
            gp.with_observation([0.5], 2.0)
        with pytest.raises(FactorizationError, match=r"\(0, 1\)"):
            GpModel(kern, 0.0, DataSet([[0.5], [0.5]], [1.0, 2.0]))

    @settings(max_examples=60)
    @given(separated_problem(max_points=40), st.integers(0, 2**32 - 1), st.booleans())
    def test_append_at_round_off_distance_raises(self, problem, draw, queried):
        # the new input is a few ulps from a stored one: in exact arithmetic its
        # pivot is ~1e-24 of the diagonal, and round-off leaves either sign of it
        kern, _, X, y, _ = problem
        kern = KernelConfig(kern.signal_variance, kern.length_scale, jitter=0.0)
        rng = np.random.default_rng(draw)
        i = int(rng.integers(len(X)))
        x = X[i] + rng.integers(-4, 5, size=X.shape[1]) * np.spacing(X[i])
        gp = GpModel(kern, 0.0, DataSet(X, y))
        if queried:  # additive control's path: the append reuses the query's column
            gp.posterior_batch(x[None, :])
        with pytest.raises(FactorizationError, match=rf"\({i}, {len(X)}\)") as appended:
            gp.with_observation(x, 0.0)
        with pytest.raises(FactorizationError) as built:
            GpModel(kern, 0.0, DataSet(np.vstack([X, x]), np.append(y, 0.0)))
        assert str(built.value) == str(appended.value)

    def test_append_names_its_duplicates_from_one_distance_row(self, monkeypatch):
        # the stored rows already factorized, so only the new point can form a
        # duplicate pair: one (M, 1) distance row names them, no (M + 1)^2 block
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        gp = GpModel(kern, 0.0, DataSet(np.arange(30.0)[:, None], np.zeros(30)))
        shapes, sq_dist = [], gp_module._sq_dist

        def counted(rows, cols):
            shapes.append((len(rows), len(cols)))
            return sq_dist(rows, cols)

        monkeypatch.setattr(gp_module, "_sq_dist", counted)
        with pytest.raises(FactorizationError) as exc:
            gp.with_observation([7.0], 1.0)
        assert str(exc.value) == (
            "training covariance is singular; duplicate input pairs "
            "(index pairs [(7, 30)]) with no noise or jitter on the diagonal"
        )
        assert shapes and all(rows * cols <= 30 for rows, cols in shapes)

    @pytest.mark.parametrize("signal_variance", [0.3, 0.5, 0.7, 1.0])
    def test_rows_1e_8_apart_raise_as_their_appends_do(self, signal_variance):
        # a squared pivot of ~1e-16 of the diagonal, below the round-off floor:
        # a model built from the rows must fail as their appends do
        kern = KernelConfig(signal_variance=signal_variance, length_scale=1.0, jitter=0.0)
        rows = [[0.5], [0.5 + 1e-8]]

        def outcome(build):
            try:
                return build().log_det()
            except FactorizationError as exc:
                return str(exc)

        empty = GpModel.empty(kern, 0.0, 1)
        appended = outcome(lambda: empty.with_observation(rows[0], 1.0).with_observation(rows[1], 2.0))
        assert outcome(lambda: GpModel(kern, 0.0, DataSet(rows, [1.0, 2.0]))) == appended

    @pytest.mark.parametrize("spacing", [1e-8, 2e-8, 5e-8, 1e-7])
    def test_rows_the_solve_cannot_resolve_raise(self, spacing):
        # squared pivots 1-23 times the rounding of c - w^T w: the 1e-8 pair was
        # accepted with |alpha| 3e15 and a midpoint mean of 1.367 for 1.5
        kern = KernelConfig(signal_variance=0.7, length_scale=1.0, jitter=0.0)
        rows = [[0.5], [0.5 + spacing]]
        unresolved = "^training covariance is not positive definite$"
        with pytest.raises(FactorizationError, match=unresolved):
            GpModel(kern, 0.0, DataSet(rows, [1.0, 2.0]))
        first = GpModel.empty(kern, 0.0, 1).with_observation(rows[0], 1.0)
        with pytest.raises(FactorizationError, match=unresolved):
            first.with_observation(rows[1], 2.0)

    @pytest.mark.parametrize("spacing", [3e-7, 1e-6])
    def test_rows_the_floor_accepts_predict_the_exact_posterior(self, spacing):
        # at the midpoint of two noise-free rows the posterior is closed-form:
        # mean c (y1 + y2) / (1 + e), variance a expm1(-s)^2 / (1 + e), with
        # s = spacing^2 / (4 l^2), c = exp(-s / 2) and e = exp(-2 s)
        a, s = 0.7, spacing**2 / 4
        c, e = np.exp(-s / 2), np.exp(-2 * s)
        gp = GpModel(KernelConfig(a, 1.0, 0.0), 0.0, DataSet([[0.5], [0.5 + spacing]], [1.0, 2.0]))
        (mean,), (variance,) = gp.posterior_batch([0.5 + spacing / 2])
        assert mean == pytest.approx(c * 3.0 / (1 + e), rel=1e-3)
        assert variance == pytest.approx(a * np.expm1(-s) ** 2 / (1 + e), abs=1e-3)

    def test_a_data_set_names_the_pairs_of_its_first_failing_row(self, monkeypatch):
        # row 1 fails first, and one (1, 1) distance row names its duplicate: no all-pairs scan
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        shapes, sq_dist = [], gp_module._sq_dist

        def counted(rows, cols):
            shapes.append((len(rows), len(cols)))
            return sq_dist(rows, cols)

        data = DataSet([[0.0], [0.0], [1.0], [1.0]], [1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(gp_module, "_sq_dist", counted)
        with pytest.raises(FactorizationError) as exc:
            GpModel(kern, 0.0, data)
        assert str(exc.value) == (
            "training covariance is singular; duplicate input pairs "
            "(index pairs [(0, 1)]) with no noise or jitter on the diagonal"
        )
        assert shapes == [(4, 4), (1, 1)]  # the covariance, then the failing row's distances

    def test_targets_that_overflow_alpha_raise(self):
        # alpha = C^{-1} y is about y / 0.5 here: an inf alpha made every mean NaN
        kern = KernelConfig(signal_variance=0.5, length_scale=1.0)
        overflows = r"^training targets overflow alpha"
        with pytest.raises(FactorizationError, match=overflows):
            GpModel(kern, 0.0, DataSet([[0.0], [1.0]], [1.7e308, -1.7e308]))
        with pytest.raises(FactorizationError, match=overflows):
            GpModel.empty(kern, 0.0, 1).with_observation([0.0], -1.7e308)
        gp = GpModel(kern, 0.0, DataSet([[0.0]], [0.8e308]))
        with pytest.raises(FactorizationError, match=overflows):
            gp.with_observation([1.0], -1.7e308)

    def test_noise_rescues_duplicates(self):
        kern = KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        data = DataSet([[0.5], [0.5]], [1.0, 3.0])
        gp = GpModel(kern, 0.1, data)
        # the posterior averages the two conflicting targets
        (mean,), _ = gp.posterior_batch([0.5])
        assert mean == pytest.approx(2.0 * 2.0 / 2.1, abs=1e-12)


def _exact_solve(matrix, rhs):
    """x with matrix @ x = rhs in exact rational arithmetic, by Gaussian elimination."""
    n = len(rhs)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / rows[c][c]
    return x


class TestExactOracle:
    def test_noise_free_logistic_means_match_an_exact_solve(self):
        # noise-free logistic runs keep every transition, so the covariance
        # conditioning reaches ~5e8 and the means are a cancellation of O(1)
        # numbers; the recorded prediction must still be the exact solve of
        # the same float K and k to 1e-10
        result = run_scenario(resolve_config({"scenario": "logistic_linear", "steps": 41}))
        gp = result.io.gps[0]
        X, targets = gp.data.inputs, gp.data.targets
        K = gp.covariance_matrix()
        for m in (10, 25, 40):
            rec = result.records[m]
            query = result.records[m - 1].observation
            k = gp.kernel.cross(X[:m], query[None, :])[:, 0]
            a = _exact_solve(K[:m, :m], targets[:m])
            exact = sum(Fraction(kj) * aj for kj, aj in zip(k, a)) + Fraction(rec.action[0])
            rel = abs(Fraction(rec.predicted_mean[0]) - exact) / abs(exact)
            assert rel <= Fraction(1, 10**10), (m, float(rel))


class TestEpisodeDenseCheck:
    def test_final_logistic_posterior_matches_a_dense_solve(self):
        # 1000 appends to one factor, noise free: the final model's posterior on
        # the action grid must still be the dense solve's, to 1e-6 and 1e-8
        result = run_scenario(resolve_config({"scenario": "logistic_linear", "steps": 1000}))
        assert result.aborted is None
        gp = result.io.gps[0]
        assert len(gp.data) == 1000
        y = np.asarray(result.records[-1].observation, dtype=float)
        points = result.io.candidate_inputs(y, build_action_set(result.config).actions)
        means, variances = gp.posterior_batch(points)
        cov = gp.covariance_matrix()
        k = gp.kernel.cross(gp.data.inputs, points)
        dense_means = k.T @ np.linalg.solve(cov, gp.data.targets)
        dense_vars = np.clip(gp.prior_variance - np.sum(k * np.linalg.solve(cov, k), axis=0),
                             0.0, gp.prior_variance)
        assert np.max(np.abs(means - dense_means)) <= 1e-6
        assert np.max(np.abs(variances - dense_vars)) <= 1e-8

