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
    CandidateSet,
    info_score,
    sample_candidates,
    select_exhaustive,
    select_max_variance,
)

SCORE_SINGLE = -0.17183209348270312  # ln(1.21 - exp(-1))
LOG_121 = 0.1906203596086497         # ln(1.21)
VAR_NEAR = 0.19995469659166554       # 1.1 - exp(-0.01)/1.1
VAR_FAR = 1.0833494191920598         # 1.1 - exp(-4)/1.1
SCORE_TWIN = -0.9173502907741637     # 2 ln(1 - exp(-1)), noise- and jitter-free


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


def reference_selection(model, theta):
    """(index, score) of the summed bordered log-dets over the public schur_complement.

    None where a leading pivot or a determinant is not positive.
    """
    schur = model.schur_complement(theta.points)
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
    theta = sample_candidates(bounds, n, mode="uniform_random",
                              seed=int(rng.integers(2**31)), exclusions=X if m else None)
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
    theta = CandidateSet(rng.uniform(2.5, 6, size=(T, dim)))
    return model, theta


class TestCandidateSet:
    def test_basic_shape_handling(self):
        cs = CandidateSet([[0.0], [1.0]])
        assert len(cs) == 2 and cs.dim == 1
        cs1d = CandidateSet([0.0, 1.0, 2.0])
        assert cs1d.points.shape == (3, 1)

    def test_empty_needs_dim(self):
        # an empty (0, d) array says its d; 1-D empty input and an (n, 0) array do not
        cs = CandidateSet(np.zeros((0, 2)))
        assert len(cs) == 0 and cs.dim == 2
        with pytest.raises(ValueError, match="candidate points are empty and no dimension"):
            CandidateSet([])
        with pytest.raises(ValueError, match=r"have no dimension, got shape \(3, 0\)"):
            CandidateSet(np.zeros((3, 0)))

    def test_points_read_only(self):
        cs = CandidateSet([[0.0]])
        with pytest.raises(ValueError):
            cs.points[0, 0] = 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet([[np.nan]])


class TestInfoScore:
    def test_single_candidate_frozen_value(self):
        # empty data, sigma=0.1: one 2x2 bordered determinant
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        theta = CandidateSet([[0.0]])
        assert info_score(model, theta, [1.0]) == pytest.approx(SCORE_SINGLE, abs=1e-12)

    def test_far_candidates_reduce_to_diagonals(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        theta = CandidateSet([[1e8], [-1e8]])
        assert info_score(model, theta, [0.0]) == pytest.approx(2 * LOG_121, abs=1e-12)

    def test_twin_candidates_never_bordered_together(self):
        # no noise or jitter: bordering the two equal candidates together
        # would be singular, but the score only pairs each with the probe
        model = GpModel.empty(KernelConfig(1.0, 1.0, 0.0), 0.0, dim=1)
        theta = CandidateSet([[0.0], [0.0]])
        assert info_score(model, theta, [1.0]) == pytest.approx(SCORE_TWIN, abs=1e-12)

    def test_equals_sum_of_assembled_matrices(self):
        rng = np.random.default_rng(41)
        for dim in (1, 2):
            for _ in range(40):
                model, theta = random_instance(rng, dim=dim)
                probe = rng.uniform(2.5, 6, size=dim)
                want = sum(
                    dense_bordered_log_det(
                        model.kernel,
                        model.noise_variance,
                        model.data.inputs,
                        np.vstack([x, probe]),
                    )
                    for x in theta.points
                )
                assert info_score(model, theta, probe) == pytest.approx(want, abs=1e-9)

    def test_empty_candidates_rejected(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        with pytest.raises(ValueError):
            info_score(model, CandidateSet(np.zeros((0, 1))), [0.0])

    @pytest.mark.parametrize("dim,probe,message", [
        (1, [1.0, 2.0], "points have dimension 2, expected 1"),
        # a column would otherwise be flattened and scored as the point (1, 2)
        (2, [[1.0], [2.0]], "a point must be a nonempty vector"),
    ], ids=["wrong_dimension", "column"])
    def test_malformed_probe_rejected(self, dim, probe, message):
        model = GpModel(unit_kernel(), 0.1, DataSet(np.zeros((1, dim)), [1.0]))
        theta = CandidateSet(np.full((2, dim), 2.0))
        with pytest.raises(ValueError, match=message):
            info_score(model, theta, probe)


class TestSelectExhaustive:
    def test_single_candidate_is_index_zero(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, CandidateSet([[0.3]]))
        assert out.index == 0
        assert out.point[0] == 0.3

    def test_symmetric_grid_against_dense_oracle(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        pts = np.array([[-1.0], [0.0], [1.0]])
        theta = CandidateSet(pts)
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
        out = select_exhaustive(model, theta)
        assert out.index == int(np.argmin(oracle))
        assert out.score == pytest.approx(min(oracle), abs=1e-10)

    def test_exact_tie_takes_lowest_index(self):
        # symmetric pair around an empty model: scores are float-identical
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_exhaustive(model, CandidateSet([[-1.0], [1.0]]))
        assert out.index == 0

    def test_log_argmin_matches_linear_product_argmin(self):
        # minimizing the summed logs and the product of determinants agree,
        # and the reported score is the dense bordered sum of the choice
        rng = np.random.default_rng(42)
        for dim in (1, 2):
            for _ in range(50):
                model, theta = random_instance(rng, max_m=4, max_t=6, dim=dim)
                log_dets = np.array([
                    [
                        dense_bordered_log_det(
                            model.kernel,
                            model.noise_variance,
                            model.data.inputs,
                            np.vstack([x, probe]),
                        )
                        for x in theta.points
                    ]
                    for probe in theta.points
                ])
                products = np.prod(np.exp(log_dets), axis=1)
                out = select_exhaustive(model, theta)
                assert out.index == int(np.argmin(products))
                assert out.score == pytest.approx(np.sum(log_dets[out.index]), abs=1e-9)

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
            theta = CandidateSet(rng.uniform(-2, 6, size=(8, 1)))
            schur = [[Fraction(v) for v in row] for row in model.schur_complement(theta.points)]
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

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(selection_problem())
    def test_bit_identical_to_the_public_schur_complement(self, problem):
        # selection builds its kernel block from its own distances; index and
        # score must be those of the public path to the last bit, and the
        # kernel must keep its expression, which the scores' bits depend on
        model, theta = problem
        kern, X, P = model.kernel, model.data.inputs, theta.points
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
            shuffled = CandidateSet(theta.points[perm])
            out2 = select_exhaustive(model, shuffled)
            scores = [info_score(model, theta, p) for p in theta.points]
            order = np.sort(scores)
            if len(order) > 1 and order[1] - order[0] < 1e-12:
                continue  # tied instance, indices may legitimately differ
            assert np.allclose(out2.point, out.point)


class TestSelectMaxVariance:
    def test_far_point_beats_near_point(self):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.0]], [1.0]))
        theta = CandidateSet([[0.1], [2.0]])
        out = select_max_variance(model, theta)
        assert out.index == 1
        _, variances = model.posterior_batch(theta.points)
        assert variances[0] == pytest.approx(VAR_NEAR, abs=1e-12)
        assert variances[1] == pytest.approx(VAR_FAR, abs=1e-12)
        assert out.score == pytest.approx(VAR_FAR, abs=1e-12)

    def test_empty_model_ties_to_index_zero(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        out = select_max_variance(model, CandidateSet([[3.0], [-2.0], [0.5]]))
        assert out.index == 0

    def test_candidate_on_training_input_rejected(self):
        model = GpModel(unit_kernel(), 0.1, DataSet([[0.5]], [1.0]))
        with pytest.raises(ValueError, match="duplicates training input"):
            select_max_variance(model, CandidateSet([[0.5], [1.0]]))

    def test_dimension_mismatch_rejected(self):
        model = GpModel.empty(unit_kernel(), 0.1, dim=2)
        with pytest.raises(ValueError):
            select_max_variance(model, CandidateSet([[0.5]]))


class TestDuplicateCandidates:
    SELECTORS = [select_exhaustive, select_max_variance]

    @staticmethod
    def two_point_model():
        return GpModel(unit_kernel(), 0.1, DataSet([[2.0], [0.5]], [0.0, 1.0]))

    @pytest.mark.parametrize("select", SELECTORS)
    def test_first_pair_named(self, select):
        # candidates 1 and 2 both duplicate an input; the lowest candidate is named
        with pytest.raises(ValueError) as exc:
            select(self.two_point_model(), CandidateSet([[1.0], [0.5], [2.0]]))
        assert str(exc.value) == "candidate 1 duplicates training input 1 (within 1e-12)"

    @pytest.mark.parametrize("select", SELECTORS)
    @pytest.mark.parametrize("offset,rejected", [(0.9e-12, True), (1.1e-12, False)])
    def test_tolerance_edge(self, select, offset, rejected):
        theta = CandidateSet([[1.0], [0.5 + offset]])
        if rejected:
            with pytest.raises(ValueError, match="candidate 1 duplicates training input 1"):
                select(self.two_point_model(), theta)
        else:
            select(self.two_point_model(), theta)

    @pytest.mark.parametrize("select", SELECTORS)
    def test_empty_model_has_nothing_to_duplicate(self, select):
        model = GpModel.empty(unit_kernel(), 0.1, dim=1)
        assert select(model, CandidateSet([[1.0], [0.5], [2.0]])).index in (0, 1, 2)


class TestWorkPerSelection:
    def test_one_distance_block_against_the_training_set(self, monkeypatch):
        # counted, not timed: M = 200, n = 50 in 2-D, as in the benchmark's selections
        rng = np.random.default_rng(46)
        X = rng.uniform(-3, 3, size=(200, 2))
        model = GpModel(KernelConfig(0.5, 1.0, 1e-9), 0.01, DataSet(X, rng.normal(size=200)))
        theta = sample_candidates([(-3, 3)] * 2, 50, mode="uniform_random", seed=1,
                                  exclusions=X)
        dists, solves, argwheres = [], [], []
        sq_dist, solve, argwhere = gp_module._sq_dist, gp_module.solve_triangular, np.argwhere

        def counted_dist(rows, cols):
            dists.append((len(rows), len(cols)))
            return sq_dist(rows, cols)

        def counted_solve(chol, rhs, trans=False):
            solves.append((rhs.shape, rhs.flags.f_contiguous))
            return solve(chol, rhs, trans)

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
    def test_1d_grid_even_spacing(self):
        cs = sample_candidates([(0.0, 1.0)], 3, mode="grid")
        assert np.allclose(cs.points[:, 0], [0.0, 0.5, 1.0])

    def test_2d_grid_square_layout(self):
        cs = sample_candidates([(0.0, 1.0), (0.0, 2.0)], 9, mode="grid")
        assert len(cs) == 9
        assert cs.dim == 2
        cs10 = sample_candidates([(0.0, 1.0), (0.0, 2.0)], 10, mode="grid")
        assert len(cs10) == 9  # floor(sqrt(10)) per axis

    def test_3d_grid_unsupported(self):
        with pytest.raises(ValueError):
            sample_candidates([(0, 1)] * 3, 8, mode="grid")

    def test_random_mode_reproducible_and_bounded(self):
        a = sample_candidates([(-2.0, 3.0)], 20, mode="uniform_random", seed=7)
        b = sample_candidates([(-2.0, 3.0)], 20, mode="uniform_random", seed=7)
        assert np.array_equal(a.points, b.points)
        assert len(a) == 20
        assert np.all(a.points >= -2.0) and np.all(a.points <= 3.0)
        c = sample_candidates([(-2.0, 3.0)], 20, mode="uniform_random", seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_exclusions_dropped(self):
        cs = sample_candidates([(0.0, 1.0)], 3, mode="grid", exclusions=[[0.5]])
        assert np.allclose(cs.points[:, 0], [0.0, 1.0])

    def test_full_exclusion_yields_empty_set(self):
        cs = sample_candidates(
            [(0.0, 1.0)], 3, mode="grid", exclusions=[[0.0], [0.5], [1.0]]
        )
        assert len(cs) == 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_candidates([(1.0, 1.0)], 3)
        with pytest.raises(ValueError):
            sample_candidates([(0.0, np.inf)], 3)
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
            theta = CandidateSet(rng.uniform(2.5, 6, size=(5, 1)))
            before = sum(model.extended_log_det(x) for x in theta.points)
            for choose in (select_exhaustive, select_max_variance):
                picked = choose(model, theta)
                grown = model.with_observation(picked.point, rng.normal())
                # same set on both sides; the absorbed point stays in it
                after = sum(grown.extended_log_det(x) for x in theta.points)
                assert after <= before + 1e-9

    def test_agreement_diagnostic_reported(self):
        # how often the greedy choice matches the exhaustive one; no
        # threshold asserted, just a sanity range and a printed report
        rng = np.random.default_rng(45)
        hits = 0
        total = 100
        for _ in range(total):
            model, theta = random_instance(rng, max_m=3, max_t=4)
            if len(theta) < 2:
                theta = CandidateSet(rng.uniform(2.5, 6, size=(3, 1)))
            hits += int(
                select_max_variance(model, theta).index
                == select_exhaustive(model, theta).index
            )
        fraction = hits / total
        print(f"\ngreedy/exhaustive agreement: {fraction:.2f} over {total} instances")
        assert 0.0 <= fraction <= 1.0
