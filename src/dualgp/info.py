"""Scoring and selection of informative sample points for GP system ID.

Given a model and a finite (n, d) array of candidate points (1-D input
is n scalars), two strategies pick the next input to probe. The
exhaustive one minimizes the summed log-determinant of the doubly
bordered covariance over the whole set; working in log space keeps the
products of determinants from underflowing while leaving the argmin
unchanged. The greedy one simply takes the candidate with the largest
posterior variance.

The paper measures information by entropy. A d-variate Gaussian with
covariance Sigma has entropy H = d/2 (1 + ln 2 pi) + 1/2 ln det Sigma
nats. Every bordered covariance in one selection has the same size, so
the first term is a constant and minimizing the summed bordered log-det
minimizes the summed entropy.
"""

from dataclasses import dataclass

import numpy as np

from .gp import DUPLICATE_TOL, FactorizationError, GpModel, _as_rows, _sq_dist

__all__ = [
    "SelectionResult",
    "sample_candidates",
    "select_exhaustive",
    "select_max_variance",
]


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate: its index in the set, a copy of the point, and its score.

    For exhaustive selection the score is the summed bordered log-det
    (lower = more informative); for greedy selection it is the posterior
    variance at the point (higher = more informative).
    """

    index: int
    point: np.ndarray
    score: float


def _disjoint_sq_dist(model: GpModel, points):
    """The candidates as (n, d) rows and their n x M squared distances to the training inputs.

    ValueError for non-finite or dimensionless points, an empty set, a
    dimension mismatch, or a candidate that duplicates a training input: a
    duplicate makes the sigma=0 case singular and re-measuring a known
    point look informative.
    """
    points = _as_rows(points, None, "candidate points")
    if len(points) == 0:
        raise ValueError("candidate set is empty")
    if points.shape[1] != model.dim:
        raise ValueError(
            f"candidates have dimension {points.shape[1]}, model expects {model.dim}"
        )
    d2 = _sq_dist(points, model.data.inputs)
    if d2.min(initial=np.inf) <= DUPLICATE_TOL**2:
        i, j = np.argwhere(d2 <= DUPLICATE_TOL**2)[0]
        raise ValueError(
            f"candidate {i} duplicates training input {j} (within {DUPLICATE_TOL})"
        )
    return points, d2


def select_exhaustive(model: GpModel, points) -> SelectionResult:
    """Probe with the least summed bordered log-det; ties take the lowest index.

    A probe's score sums ln det of the training covariance bordered by it
    and x over every candidate x. All pairs come from one Schur complement
    over the set; a pair's border rows are separate observations, so the
    noise stays off their shared entry even when both are one point.
    """
    points, d2 = _disjoint_sq_dist(model, points)
    # transposed, the (M, n) kernel block is in the Fortran order the solve takes
    schur = model._schur_complement(points, model.kernel._from_sq_dist(d2).T)
    s = np.diag(schur)
    dets = np.outer(s, s) - schur**2
    # self-pair: s^2 - (s - boost)^2 without the cancellation of two near-equal squares
    boost = model._diagonal_boost()
    np.fill_diagonal(dets, boost * (2 * s - boost))
    # exactly where the 2x2 Cholesky factorization of a block fails
    if np.any(s <= 0) or np.any(dets <= 0):
        raise FactorizationError(
            "bordered covariance is singular; duplicate border points "
            "with no noise or jitter on the diagonal"
        )
    scores = len(s) * model.log_det() + np.sum(np.log(dets), axis=0)
    idx = int(np.argmin(scores))
    return SelectionResult(index=idx, point=points[idx].copy(), score=float(scores[idx]))


def select_max_variance(model: GpModel, points) -> SelectionResult:
    """Candidate with the largest posterior variance; ties take the lowest index."""
    points, _ = _disjoint_sq_dist(model, points)
    _, variances = model.posterior_batch(points)
    idx = int(np.argmax(variances))
    return SelectionResult(index=idx, point=points[idx].copy(), score=float(variances[idx]))


def sample_candidates(
    bounds,
    n: int,
    mode: str = "uniform_random",
    seed=None,
    exclusions=None,
) -> np.ndarray:
    """Draw up to n points uniformly from a box domain as an (n, d) float array.

    ``bounds`` is one (low, high) pair per dimension; the n points are
    reproducible from the seed. ``mode`` accepts only "uniform_random".
    Points within 1e-12 of any exclusion row are dropped, so the result can
    be empty; callers must check before selecting.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dim = len(bounds)
    if dim == 0:
        raise ValueError("bounds must cover at least one dimension")
    for lo, hi in bounds:
        # Python floats: a span that overflows reads inf, with no warning
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ValueError(f"invalid bounds ({lo}, {hi}): need low < high and a finite span")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode != "uniform_random":
        raise ValueError(f"unknown mode {mode!r}: expected 'uniform_random'")

    lows, highs = np.array(bounds).T
    pts = np.random.default_rng(seed).uniform(lows, highs, size=(n, dim))

    if exclusions is not None:
        excl = _as_rows(np.atleast_2d(exclusions), dim, "exclusions")
        pts = pts[np.all(_sq_dist(pts, excl) > DUPLICATE_TOL**2, axis=1)]

    return pts
