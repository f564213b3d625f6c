"""Scoring and selection of informative sample points for GP system ID.

Given a model and a finite candidate set, two strategies pick the next
input to probe. The exhaustive one minimizes the summed log-determinant
of the doubly bordered covariance over the whole set; working in log
space keeps the products of determinants from underflowing while leaving
the argmin unchanged. The greedy one simply takes the candidate with the
largest posterior variance.

The paper measures information by entropy. A d-variate Gaussian with
covariance Sigma has entropy H = d/2 (1 + ln 2 pi) + 1/2 ln det Sigma
nats. Every bordered covariance in one selection has the same size, so
the first term is a constant and minimizing the summed bordered log-det
minimizes the summed entropy.
"""

from dataclasses import dataclass

import numpy as np

from .gp import DUPLICATE_TOL, FactorizationError, GpModel, _as_point, _as_rows, _sq_dist

__all__ = [
    "CandidateSet",
    "SelectionResult",
    "sample_candidates",
    "info_score",
    "select_exhaustive",
    "select_max_variance",
]


class CandidateSet:
    """Finite set of d-dimensional points eligible as the next probe."""

    def __init__(self, points):
        self.points = _as_rows(points, None, "candidate points")
        self.points.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate: its index in the set, the point, and its score.

    For exhaustive selection the score is the summed bordered log-det
    (lower = more informative); for greedy selection it is the posterior
    variance at the point (higher = more informative).
    """

    index: int
    point: np.ndarray
    score: float


def _require_scoreable(model: GpModel, candidates: CandidateSet):
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    if candidates.dim != model.dim:
        raise ValueError(
            f"candidates have dimension {candidates.dim}, model expects {model.dim}"
        )


def _disjoint_sq_dist(model: GpModel, candidates: CandidateSet) -> np.ndarray:
    """Candidate x training squared distances, once no candidate duplicates an input."""
    # keep Theta disjoint from the training inputs when picking a probe,
    # else the sigma=0 case goes singular and re-measuring known points
    # can look informative
    d2 = _sq_dist(candidates.points, model.data.inputs)
    if d2.size and d2.min() <= DUPLICATE_TOL**2:
        i, j = np.argwhere(d2 <= DUPLICATE_TOL**2)[0]
        raise ValueError(
            f"candidate {i} duplicates training input {j} (within {DUPLICATE_TOL})"
        )
    return d2


def _log_dets(dets, pivots):
    """ln of bordered Schur determinants with leading pivots ``pivots``.

    Raises exactly where the 1x1 or 2x2 Cholesky factorization of such a
    block fails: a leading pivot or a determinant that is not positive.
    """
    if np.any(pivots <= 0) or np.any(dets <= 0):
        raise FactorizationError(
            "bordered covariance is singular; duplicate border points "
            "with no noise or jitter on the diagonal"
        )
    return np.log(dets)


def info_score(model: GpModel, candidates: CandidateSet, probe) -> float:
    """Summed log-det of the covariance bordered by (candidate, probe) pairs.

    One term per candidate x: ln det of the training covariance extended
    by both x and the probe. Lower totals mean the probe explains more of
    the set.
    """
    _require_scoreable(model, candidates)
    schur = model.schur_complement(np.vstack([candidates.points, _as_point(probe, model.dim)]))
    s = np.diag(schur)[:-1]
    logs = _log_dets(s * schur[-1, -1] - schur[:-1, -1] ** 2, s)
    return len(candidates) * model.log_det() + float(np.sum(logs))


def select_exhaustive(model: GpModel, candidates: CandidateSet) -> SelectionResult:
    """Probe minimizing info_score over the candidate set; ties take the lowest index.

    Scores every (candidate, probe) pair from one Schur complement S over
    the set; the pair's border rows are separate observations, so the
    noise stays off their shared entry even when both are one point.
    """
    _require_scoreable(model, candidates)
    d2 = _disjoint_sq_dist(model, candidates)
    # transposed, the (M, n) kernel block is in the Fortran order the solve takes
    schur = model._schur_complement(candidates.points, model.kernel._from_sq_dist(d2).T)
    s = np.diag(schur)
    dets = np.outer(s, s) - schur**2
    # self-pair: s^2 - (s - boost)^2 without the cancellation of two near-equal squares
    boost = model._diagonal_boost()
    np.fill_diagonal(dets, boost * (2 * s - boost))
    logs = _log_dets(dets, s)
    scores = len(s) * model.log_det() + np.sum(logs, axis=0)
    idx = int(np.argmin(scores))
    return SelectionResult(index=idx, point=candidates.points[idx], score=float(scores[idx]))


def select_max_variance(model: GpModel, candidates: CandidateSet) -> SelectionResult:
    """Candidate with the largest posterior variance; ties take the lowest index."""
    _require_scoreable(model, candidates)
    _disjoint_sq_dist(model, candidates)
    _, variances = model.posterior_batch(candidates.points)
    idx = int(np.argmax(variances))
    return SelectionResult(
        index=idx, point=candidates.points[idx], score=float(variances[idx])
    )


def sample_candidates(
    bounds,
    n: int,
    mode: str = "grid",
    seed=None,
    exclusions=None,
) -> CandidateSet:
    """Draw up to n points from a box domain as a CandidateSet.

    ``bounds`` is one (low, high) pair per dimension. Grid mode places
    evenly spaced points including the endpoints (1-D: n points; 2-D:
    floor(sqrt(n)) per axis); uniform_random draws n points reproducibly
    from the seed. Points within 1e-12 of any exclusion row are dropped,
    so the result can be empty; callers must check before selecting.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dim = len(bounds)
    if dim == 0:
        raise ValueError("bounds must cover at least one dimension")
    for lo, hi in bounds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid bounds ({lo}, {hi}): need finite low < high")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    if mode == "grid":
        if dim == 1:
            lo, hi = bounds[0]
            pts = np.linspace(lo, hi, n)[:, None]
        elif dim == 2:
            per_axis = max(1, int(np.floor(np.sqrt(n))))
            axes = [np.linspace(lo, hi, per_axis) for lo, hi in bounds]
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
        else:
            raise ValueError(f"grid mode supports 1-D and 2-D domains, got {dim}-D")
    elif mode == "uniform_random":
        rng = np.random.default_rng(seed)
        lows = np.array([lo for lo, _ in bounds])
        highs = np.array([hi for _, hi in bounds])
        pts = rng.uniform(lows, highs, size=(n, dim))
    else:
        raise ValueError(f"unknown mode {mode!r}: expected 'grid' or 'uniform_random'")

    if exclusions is not None:
        excl = _as_rows(np.atleast_2d(exclusions), dim, "exclusions")
        pts = pts[np.all(_sq_dist(pts, excl) > DUPLICATE_TOL**2, axis=1)]

    return CandidateSet(pts)
