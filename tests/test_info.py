"""Information scoring and probe selection over candidate sets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgp import gp as gp_module
from dualgp import info as info_module
from dualgp.gp import DataSet, FactorizationError, GpModel, KernelConfig
from dualgp.info import (
    sample_candidates,
    select_exhaustive,
    select_max_variance,
)

LOG_021 = -1.5606477482646683       # ln(1.1^2 - 1)
LOG_121 = 0.1906203596086497         # ln(1.21)
VAR_NEAR = 0.19995469659166554       # 1.1 - exp(-0.01)/1.1
VAR_FAR = 1.0833494191920598         # 1.1 - exp(-4)/1.1


def unit_kernel():
    return KernelConfig(signal_variance=1.0, length_scale=1.0, jitter=0.0)


def dense_bordered_log_det(kernel, noise, X, borders):
    """Assemble the full bordered matrix and slogdet it, no shared code."""
    pts = np.vstack([X, borders]) if len(X) else np.asarray(borders, dtype=float)
    n = len(pts)
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2 = np.sum((pts[i] - pts[j]) ** 2)
            C[i, j] = kernel.signal_variance * np.exp(-0.5 * d2 / kernel.length_scale**2)
    C += (noise + kernel.jitter) * np.eye(n)
    sign, val = np.linalg.slogdet(C)
    assert sign == 1.0
    return val


def dense_log_dets(model, theta):
    """dense_bordered_log_det of every (probe, candidate) pair, shape (n probes, n candidates)."""
    return np.array([
        [
            dense_bordered_log_det(
                model.kernel, model.noise_variance, model.data.inputs, np.vstack([x, probe])
            )
            for x in theta
        ]
        for probe in theta
    ])


def cross_schur(model, points):
    """The model's Schur complement for ``points``, its kernel block built by kernel.cross."""
    return model._schur_complement(points, model.kernel.cross(model.data.inputs, points))


def reference_selection(model, theta):
    """(index, score) of the summed bordered log-dets over cross_schur.

    None where a leading pivot or a determinant is not positive.
    """
    schur = cross_schur(model, theta)
    s = np.diag(schur)
    dets = np.outer(s, s) - schur**2
    boost = model.noise_variance + model.kernel.jitter
    np.fill_diagonal(dets, boost * (2 * s - boost))
    if np.any(s <= 0) or np.any(dets <= 0):
        return None
    scores = len(s) * model.log_det() + np.sum(np.log(dets), axis=0)
    idx = int(np.argmin(scores))
    return idx, float(scores[idx])


@st.composite
def selection_problem(draw):
    """A model of 0-60 lattice-spread training points and 1-30 candidates off them."""
    dim = draw(st.sampled_from([1, 2]))
    noise = draw(st.sampled_from([0.0, 0.01]))
    kern = KernelConfig(signal_variance=draw(st.floats(0.2, 1.5)),
                        length_scale=draw(st.floats(0.3, 1.5)))
    # hypothesis favours small integers; the second range draws sizes near the top too
    m = draw(st.one_of(st.integers(0, 60), st.integers(45, 60)))
    n = draw(st.one_of(st.integers(1, 30), st.integers(20, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # lattice sites 0.7 length scales apart, moved by at most a tenth of that,
    # keep the noise-free covariance well conditioned
    gap = 0.7 * kern.length_scale
    side = int(np.ceil(m ** (1.0 / dim))) if m else 1
    sites = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1).reshape(-1, dim)
    X = gap * (rng.permutation(sites)[:m] + rng.uniform(-0.1, 0.1, size=(m, dim)))
    model = GpModel(kern, noise, DataSet(X, rng.normal(size=m)))
    bounds = [(-gap, gap * side)] * dim
    theta = sample_candidates(bounds, n, seed=int(rng.integers(2**31)),
                              exclusions=X if m else None)
    return model, theta


def random_instance(rng, max_m=4, max_t=6, dim=1):
    kern = KernelConfig(
        signal_variance=float(rng.uniform(0.2, 1.5)),
        length_scale=float(rng.uniform(0.5, 2.0)),
    )
    noise = float(rng.uniform(0.05, 0.5))
    M = int(rng.integers(0, max_m + 1))
    X = rng.uniform(-2, 2, size=(M, dim))
    model = GpModel(kern, noise, DataSet(X, rng.normal(size=M)))
    T = int(rng.integers(1, max_t + 1))
    theta = rng.uniform(2.5, 6, size=(T, dim))
    return model, theta


class TestInfoScore:
    """The score select_exhaustive reports: its probe's summed bordered log-det."""

    def test_single_candidate_frozen_value(self):
        # empty data, sigma=0.1: the candidate borders itself, noise on each copy
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, np.array([[0.0]]))
        assert out.score == pytest.approx(LOG_021, abs=1e-12)

    def test_far_candidates_reduce_to_diagonals(self):
        # the far pair's determinant is the product of its diagonal, 1.1^2
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, np.array([[1e8], [-1e8]]))
        assert out.score == pytest.approx(LOG_021 + LOG_121, abs=1e-12)

    def test_equals_sum_of_assembled_matrices(self):
        rng = np.random.default_rng(41)
        for dim in (1, 2):
            for _ in range(40):
                model, theta = random_instance(rng, dim=dim)
                out = select_exhaustive(model, theta)
                want = np.sum(dense_log_dets(model, theta)[out.index])
                assert out.score == pytest.approx(want, abs=1e-9)


class TestSelectExhaustive:
    def test_single_candidate_is_index_zero(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, np.array([[0.3]]))
        assert out.index == 0
        assert out.point[0] == 0.3

    def test_symmetric_grid_against_dense_oracle(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        pts = np.array([[-1.0], [0.0], [1.0]])
        oracle = []
        for probe in pts:
            oracle.append(
                sum(
                    dense_bordered_log_det(
                        model.kernel, 0.1, np.zeros((0, 1)), np.vstack([x, probe])
                    )
                    for x in pts
                )
            )
        out = select_exhaustive(model, pts)
        assert out.index == int(np.argmin(oracle))
        assert out.score == pytest.approx(min(oracle), abs=1e-10)

    def test_exact_tie_takes_lowest_index(self):
        # symmetric pair around an empty model: scores are float-identical
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, np.array([[-1.0], [1.0]]))
        assert out.index == 0

    def test_log_argmin_matches_linear_product_argmin(self):
        # minimizing the summed logs and the product of determinants agree
        # (TestInfoScore checks the reported score against the dense sum)
        rng = np.random.default_rng(42)
        for dim in (1, 2):
            for _ in range(50):
                model, theta = random_instance(rng, max_m=4, max_t=6, dim=dim)
                products = np.prod(np.exp(dense_log_dets(model, theta)), axis=1)
                assert select_exhaustive(model, theta).index == int(np.argmin(products))

    def test_noise_free_self_pair_raises(self):
        # no noise or jitter: a probe bordered by itself is singular
        model = GpModel(unit_kernel(), 0.0, DataSet([[0.0]], [1.0]))
        with pytest.raises(FactorizationError, match="^bordered covariance is singular"):
            select_exhaustive(model, np.array([[1.0], [2.0]]))

    def test_noise_free_scores_match_exact_arithmetic(self):
        # with no noise a self-pair determinant is about 2 * s * jitter;
        # evaluate the same formula from the same Schur complement with
        # exact rationals and compare the chosen score
        rng = np.random.default_rng(44)
        for _ in range(30):
            kern = KernelConfig(
                float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.5, 2.0)), jitter=1e-9
            )
            data = DataSet(rng.uniform(-2, 2, size=(3, 1)), rng.normal(size=3))
            model = GpModel(kern, 0.0, data)
            theta = rng.uniform(-2, 6, size=(8, 1))
            schur = [[Fraction(v) for v in row] for row in cross_schur(model, theta)]
            boost = Fraction(kern.jitter)
            n = len(theta)
            scores = []
            for j in range(n):
                logs = []
                for i in range(n):
                    off = schur[i][j] - (boost if i == j else 0)
                    logs.append(math.log(schur[i][i] * schur[j][j] - off * off))
                scores.append(n * model.log_det() + math.fsum(logs))
            out = select_exhaustive(model, theta)
            assert out.index == int(np.argmin(scores))
            assert out.score == pytest.approx(scores[out.index], rel=1e-12)

    @settings(max_examples=80)
    @given(selection_problem())
    def test_bit_identical_to_the_cross_built_schur_complement(self, problem):
        # selection builds its kernel block from its own distances; index and
        # score must be those of a block from kernel.cross to the last bit, and
        # the kernel must keep its expression, which the scores' bits depend on
        model, theta = problem
        kern, X, P = model.kernel, model.data.inputs, theta
        d2 = sum((P[:, None, j] - X[None, :, j]) ** 2 for j in range(model.dim))
        expected = kern.signal_variance * np.exp(-0.5 * d2 / kern.length_scale**2)
        assert np.array_equal(kern.cross(P, X), expected)
        want = reference_selection(model, theta)
        if want is None:
            with pytest.raises(FactorizationError):
                select_exhaustive(model, theta)
            return
        out = select_exhaustive(model, theta)
        assert (out.index, out.score) == want

    def test_permutation_covariant(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            model, theta = random_instance(rng)
            out = select_exhaustive(model, theta)
            perm = rng.permutation(len(theta))
            out2 = select_exhaustive(model, theta[perm])
            order = np.sort(np.sum(dense_log_dets(model, theta), axis=1))
            if len(order) > 1 and order[1] - order[0] < 1e-12:
                continue  # tied instance, indices may legitimately differ
            assert np.allclose(out2.point, out.point)


class TestSelectMaxVariance:
    def test_far_point_beats_near_point(self):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.0]], [1.0]))
        theta = np.array([[0.1], [2.0]])
        out = select_max_variance(model, theta)
        assert out.index == 1
        _, variances = model.posterior_batch(theta)
        assert variances[0] == pytest.approx(VAR_NEAR, abs=1e-12)
        assert variances[1] == pytest.approx(VAR_FAR, abs=1e-12)
        assert out.score == pytest.approx(VAR_FAR, abs=1e-12)

    def test_empty_model_ties_to_index_zero(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_max_variance(model, np.array([[3.0], [-2.0], [0.5]]))
        assert out.index == 0

    def test_candidate_on_training_input_rejected(self):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5]], [1.0]))
        with pytest.raises(ValueError, match="duplicates training input"):
            select_max_variance(model, np.array([[0.5], [1.0]]))


SELECTORS = [select_exhaustive, select_max_variance]


class TestCandidateChecks:
    @pytest.mark.parametrize("select", SELECTORS)
    def test_empty_set_rejected(self, select):
        # an empty (0, d) array says its d, so it is empty rather than dimensionless
        for dim in (1, 2):
            model = GpModel(unit_kernel(), 0.1, DataSet([[0.5] * dim], [1.0]))
            with pytest.raises(ValueError, match="^candidate set is empty$"):
                select(model, np.zeros((0, dim)))

    @pytest.mark.parametrize("select", SELECTORS)
    @pytest.mark.parametrize("points,message", [
        ([], r"^candidate points are empty and no dimension was given$"),
        (np.zeros((3, 0)), r"^candidate points have no dimension, got shape \(3, 0\)$"),
        ([[np.nan]], "^candidate points contain non-finite values$"),
        ([[0.0], [np.inf]], "^candidate points contain non-finite values$"),
    ], ids=["empty-list", "no-dimension", "nan", "inf"])
    def test_points_without_dimension_or_finite_values_rejected(self, select, points, message):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5]], [1.0]))
        with pytest.raises(ValueError, match=message):
            select(model, points)

    @pytest.mark.parametrize("select", SELECTORS)
    def test_dimension_mismatch_rejected(self, select):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5, 0.5]], [1.0]))
        with pytest.raises(ValueError,
                           match="^candidates have dimension 1, model expects 2$"):
            select(model, np.array([[0.5]]))

    @pytest.mark.parametrize("select", SELECTORS)
    def test_one_dimensional_input_is_n_scalars(self, select):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5]], [1.0]))
        flat = select(model, np.array([1.5, -0.25, 0.75]))
        column = select(model, np.array([[1.5], [-0.25], [0.75]]))
        assert flat.point.shape == (1,)
        assert (flat.index, flat.point.tobytes(), flat.score) == (
            column.index, column.point.tobytes(), column.score)

    @pytest.mark.parametrize("select", SELECTORS)
    def test_list_array_and_read_only_array_select_alike(self, select):
        rng = np.random.default_rng(47)
        X = rng.uniform(-2, 2, size=(6, 2))
        model = GpModel(KernelConfig(0.8, 0.9, 1e-9), 0.01, DataSet(X, rng.normal(size=6)))
        points = rng.uniform(-2, 2, size=(7, 2))
        frozen = points.copy()
        frozen.setflags(write=False)
        picks = [select(model, p) for p in (points.tolist(), points, frozen)]
        assert len({(p.index, p.point.tobytes(), p.score) for p in picks}) == 1

    @pytest.mark.parametrize("select", SELECTORS)
    def test_point_is_a_copy_of_the_callers_row(self, select):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5]], [1.0]))
        points = np.array([[1.5], [-0.25], [0.75]])
        out = select(model, points)
        chosen = points[out.index].copy()
        points[:] = 9.0
        assert np.array_equal(out.point, chosen)


class TestDuplicateCandidates:
    @staticmethod
    def two_point_model():
        return GpModel(unit_kernel(), 0.1, DataSet([[2.0], [0.5]], [0.0, 1.0]))

    @pytest.mark.parametrize("select", SELECTORS)
    def test_first_pair_named(self, select):
        # candidates 1 and 2 both duplicate an input; the lowest candidate is named
        with pytest.raises(ValueError) as exc:
            select(self.two_point_model(), np.array([[1.0], [0.5], [2.0]]))
        assert str(exc.value) == "candidate 1 duplicates training input 1 (within 1e-12)"

    @pytest.mark.parametrize("select", SELECTORS)
    @pytest.mark.parametrize("offset,rejected", [(0.9e-12, True), (1.1e-12, False)])
    def test_tolerance_edge(self, select, offset, rejected):
        theta = np.array([[1.0], [0.5 + offset]])
        if rejected:
            with pytest.raises(ValueError, match="candidate 1 duplicates training input 1"):
                select(self.two_point_model(), theta)
        else:
            select(self.two_point_model(), theta)

    @pytest.mark.parametrize("select", SELECTORS)
    def test_empty_model_has_nothing_to_duplicate(self, select):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        assert select(model, np.array([[1.0], [0.5], [2.0]])).index in (0, 1, 2)


class TestWorkPerSelection:
    def test_one_distance_block_against_the_training_set(self, monkeypatch):
        # counted, not timed: M = 200, n = 50 in 2-D, as in the benchmark's selections
        rng = np.random.default_rng(46)
        X = rng.uniform(-3, 3, size=(200, 2))
        model = GpModel(KernelConfig(0.5, 1.0, 1e-9), 0.01, DataSet(X, rng.normal(size=200)))
        theta = sample_candidates([(-3, 3)] * 2, 50, seed=1, exclusions=X)
        dists, solves, argwheres = [], [], []
        sq_dist, solve, argwhere = gp_module._sq_dist, gp_module.solve_triangular, np.argwhere

        def counted_dist(rows, cols):
            dists.append((len(rows), len(cols)))
            return sq_dist(rows, cols)

        def counted_solve(chol, rhs, trans=False, overwrite_b=False):
            solves.append((rhs.shape, rhs.flags.f_contiguous))
            return solve(chol, rhs, trans, overwrite_b)

        def counted_argwhere(a):
            argwheres.append(a.shape)
            return argwhere(a)

        for module in (gp_module, info_module):
            monkeypatch.setattr(module, "_sq_dist", counted_dist)
        monkeypatch.setattr(gp_module, "solve_triangular", counted_solve)
        monkeypatch.setattr(np, "argwhere", counted_argwhere)
        select_exhaustive(model, theta)
        assert sorted(dists) == [(50, 50), (50, 200)]
        assert solves == [((200, 50), True)]
        assert argwheres == []


class TestSampleCandidates:
    @settings(max_examples=60)
    @given(
        bounds=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).filter(lambda b: b[0] < b[1]),
            min_size=1, max_size=4,
        ),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_are_the_seeded_uniform_formula(self, bounds, n, seed):
        lows = np.array([lo for lo, _ in bounds])
        highs = np.array([hi for _, hi in bounds])
        want = np.random.default_rng(seed).uniform(lows, highs, size=(n, len(bounds)))
        assert np.array_equal(sample_candidates(bounds, n, seed=seed), want)

    def test_random_mode_reproducible_and_bounded(self):
        a = sample_candidates([(-2.0, 3.0)], 20, seed=7)
        b = sample_candidates([(-2.0, 3.0)], 20, mode="uniform_random", seed=7)
        assert np.array_equal(a, b)
        assert len(a) == 20
        assert np.all(a >= -2.0) and np.all(a <= 3.0)
        c = sample_candidates([(-2.0, 3.0)], 20, seed=8)
        assert not np.array_equal(a, c)

    def test_grid_mode_rejected(self):
        # a caller asking for a grid gets an error, not random points in its place
        want = "^unknown mode 'grid': expected 'uniform_random'$"
        for bounds in ([(0.0, 1.0)], [(0.0, 1.0)] * 2, [(0.0, 1.0)] * 3):
            with pytest.raises(ValueError, match=want):
                sample_candidates(bounds, 9, mode="grid")

    def test_exclusions_dropped(self):
        # exclude two drawn points, one exactly and one within the 1e-12 tolerance
        bounds = [(0.0, 1.0), (-1.0, 1.0)]
        drawn = sample_candidates(bounds, 10, seed=3)
        excl = [drawn[2], drawn[7] + [0.5e-12, 0.0], [5.0, 5.0]]
        cs = sample_candidates(bounds, 10, seed=3, exclusions=excl)
        assert np.array_equal(cs, np.delete(drawn, [2, 7], axis=0))

    def test_full_exclusion_yields_empty_set(self):
        drawn = sample_candidates([(0.0, 1.0)], 5, seed=4)
        cs = sample_candidates([(0.0, 1.0)], 5, seed=4, exclusions=drawn)
        assert cs.shape == (0, 1)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_candidates([(1.0, 1.0)], 3)
        with pytest.raises(ValueError):
            sample_candidates([(0.0, np.inf)], 3)
        # a span that overflows is named, with no numpy overflow warning
        with pytest.raises(ValueError, match=r"^invalid bounds \(-1e\+308, 1e\+308\): "):
            sample_candidates([(-1e308, 1e308)], 3, seed=0)
        with pytest.raises(ValueError):
            sample_candidates([(0.0, 1.0)], 0)
        with pytest.raises(ValueError):
            sample_candidates([(0.0, 1.0)], 3, mode="sobol")


class TestAggregateLogDet:
    def test_never_increases_when_prior_variance_below_one(self):
        # absorbing any probe shrinks the summed bordered log-dets as long
        # as the prior predictive variance (amplitude + noise) stays < 1
        rng = np.random.default_rng(44)
        for _ in range(30):
            a = float(rng.uniform(0.2, 0.8))
            noise = float(rng.uniform(0.01, 1.0 - a - 0.05))
            kern = KernelConfig(signal_variance=a, length_scale=1.0)
            M = int(rng.integers(0, 5))
            X = rng.uniform(-2, 2, size=(M, 1))
            model = GpModel(kern, noise, DataSet(X, rng.normal(size=M)))
            theta = rng.uniform(2.5, 6, size=(5, 1))

            def summed(inputs):
                return sum(dense_bordered_log_det(kern, noise, inputs, x[None, :])
                           for x in theta)

            before = summed(X)
            for choose in (select_exhaustive, select_max_variance):
                picked = choose(model, theta)
                grown = model.with_observation(picked.point, rng.normal())
                # same set on both sides; the absorbed point stays in it
                assert summed(grown.data.inputs) <= before + 1e-9

    def test_agreement_diagnostic_reported(self):
        # how often the greedy choice matches the exhaustive one; no
        # threshold asserted, just a sanity range and a printed report
        rng = np.random.default_rng(45)
        hits = 0
        total = 100
        for _ in range(total):
            model, theta = random_instance(rng, max_m=3, max_t=4)
            if len(theta) < 2:
                theta = rng.uniform(2.5, 6, size=(3, 1))
            hits += int(
                select_max_variance(model, theta).index
                == select_exhaustive(model, theta).index
            )
        fraction = hits / total
        print(f"\ngreedy/exhaustive agreement: {fraction:.2f} over {total} instances")
        assert 0.0 <= fraction <= 1.0
