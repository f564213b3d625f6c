"""Exact Gaussian-process regression for small, growing data sets.

The controller in this package observes one data point per step, so the
model is built around cheap incremental updates: a cached Cholesky factor
of the noisy covariance matrix is extended by one row per observation,
and every query (posterior mean/variance, bordered log-determinants for
information scoring) is answered through triangular solves against that
factor. No explicit matrix inverse is ever formed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "FactorizationError",
    "KernelConfig",
    "DataSet",
    "Posterior",
    "GpModel",
    "gaussian_entropy",
]

LOG_2PI = float(np.log(2.0 * np.pi))
# below this separation two points count as duplicates
DUPLICATE_TOL = 1e-12


class FactorizationError(ValueError):
    """Covariance matrix could not be factorized (not positive definite)."""


def _as_point(x, dim=None):
    """Coerce a query point to a finite 1-D float vector."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"query point must be a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"query point contains non-finite values: {p}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"query point has dimension {p.shape[0]}, expected {dim}")
    return p


def _as_rows(values, dim, what):
    """Coerce a point set to a finite (n, d) float array; 1-D input is n scalars.

    ``what`` names the points in errors; empty input needs ``dim``.
    """
    rows = np.asarray(values, dtype=float)
    if rows.size == 0:
        if dim is None:
            raise ValueError(f"{what} are empty and no dimension was given")
        rows = rows.reshape(0, dim)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2:
        raise ValueError(f"{what} must be an (n, d) array, got shape {rows.shape}")
    if dim is not None and rows.shape[1] != dim:
        raise ValueError(f"{what} have dimension {rows.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} contain non-finite values")
    return rows


def _sq_dist(rows, cols):
    """Squared distances between two (n, d) point sets, shape (len(rows), len(cols))."""
    # divergent points may overflow to inf: kernel value 0, never a duplicate
    with np.errstate(over="ignore"):
        return np.sum((rows[:, None, :] - cols[None, :, :]) ** 2, axis=-1)


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel a*exp(-||x - x'||^2 / (2 l^2)).

    ``signal_variance`` is the amplitude a (the kernel's value at zero
    distance), ``length_scale`` the isotropic scale l, and ``jitter`` a
    non-negative stabilizer added to diagonal entries during
    factorization.
    """

    signal_variance: float = 1.0
    length_scale: float = 1.0
    jitter: float = 1e-9

    def __post_init__(self):
        if not (self.signal_variance > 0):
            raise ValueError(f"signal_variance must be > 0, got {self.signal_variance}")
        if not (self.length_scale > 0):
            raise ValueError(f"length_scale must be > 0, got {self.length_scale}")
        if not (self.jitter >= 0):
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def value(self, x, x2) -> float:
        """Kernel between two points; symmetric, in (0, signal_variance]."""
        p = _as_point(x)
        q = _as_point(x2, dim=p.shape[0])
        return float(self.cross(p, q)[0, 0])

    def cross(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kernel matrix between two point sets, shape (len(rows), len(cols))."""
        d2 = _sq_dist(np.atleast_2d(rows), np.atleast_2d(cols))
        return self.signal_variance * np.exp(-0.5 * d2 / self.length_scale**2)


class DataSet:
    """Immutable training set: M input vectors of equal dimension plus M scalar targets."""

    def __init__(self, inputs, targets, dim=None):
        inputs = _as_rows(inputs, dim, "inputs")
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} inputs but {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        self.inputs = inputs
        self.targets = targets
        self.inputs.setflags(write=False)
        self.targets.setflags(write=False)

    @classmethod
    def empty(cls, dim: int) -> "DataSet":
        return cls(np.zeros((0, dim)), np.zeros(0), dim=dim)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def append(self, x, y) -> "DataSet":
        x = _as_point(x, dim=self.dim)
        return DataSet(
            np.vstack([self.inputs, x[None, :]]),
            np.append(self.targets, float(y)),
            dim=self.dim,
        )


@dataclass(frozen=True)
class Posterior:
    """Predictive mean and (non-negative) variance at a single query point."""

    mean: float
    variance: float


def _name_duplicates(inputs):
    """Find index pairs of (near-)duplicate rows, for factorization error messages."""
    i, j = np.nonzero(np.triu(_sq_dist(inputs, inputs) <= DUPLICATE_TOL**2, k=1))
    return list(zip(i.tolist(), j.tolist()))


class GpModel:
    """Zero-mean GP conditioned on a DataSet, with a cached Cholesky factor.

    Immutable: queries never change the model, and adding an observation
    returns a new model value. The covariance of the training set is
    K + (noise_variance + jitter) * I where K is the kernel Gram matrix;
    the prior predictive variance at any point is
    kappa = signal_variance + noise_variance.
    """

    def __init__(self, kernel: KernelConfig, noise_variance: float, data: DataSet):
        if not (noise_variance >= 0):
            raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.data = data
        self._chol = self._factorize()
        # alpha = C^{-1} y via two triangular solves
        if len(data) > 0:
            z = solve_triangular(self._chol, data.targets, lower=True)
            self._alpha = solve_triangular(self._chol, z, lower=True, trans="T")
        else:
            self._alpha = np.zeros(0)

    @classmethod
    def empty(cls, kernel: KernelConfig, noise_variance: float, dim: int) -> "GpModel":
        return cls(kernel, noise_variance, DataSet.empty(dim))

    # -- construction ------------------------------------------------------

    def _diagonal_boost(self) -> float:
        return self.noise_variance + self.kernel.jitter

    def covariance_matrix(self) -> np.ndarray:
        """Dense training covariance K + (noise + jitter) I, shape (M, M)."""
        n = len(self.data)
        c = self.kernel.cross(self.data.inputs, self.data.inputs)
        c[np.diag_indices(n)] += self._diagonal_boost()
        return c

    def _factorize(self) -> np.ndarray:
        n = len(self.data)
        if n == 0:
            return np.zeros((0, 0))
        try:
            return np.linalg.cholesky(self.covariance_matrix())
        except np.linalg.LinAlgError:
            pairs = _name_duplicates(self.data.inputs)
            if pairs:
                raise FactorizationError(
                    "training covariance is singular; duplicate input pairs "
                    f"(index pairs {pairs}) with no noise or jitter on the diagonal"
                ) from None
            raise FactorizationError(
                "training covariance is not positive definite"
            ) from None

    def with_observation(self, x, y) -> "GpModel":
        """New model with one more (input, target) pair.

        Extends the cached factor by a single row instead of refactorizing
        the full matrix; falls back to a full factorization if round-off
        makes the extended pivot non-positive.
        """
        x = _as_point(x, dim=self.dim)
        new_data = self.data.append(x, y)
        n = len(self.data)
        if n > 0:
            k = self.kernel.cross(self.data.inputs, x[None, :])[:, 0]
            w = solve_triangular(self._chol, k, lower=True)
            pivot = self.kernel.signal_variance + self._diagonal_boost() - float(w @ w)
        else:
            w = np.zeros(0)
            pivot = self.kernel.signal_variance + self._diagonal_boost()
        if pivot <= 0:
            return GpModel(self.kernel, self.noise_variance, new_data)
        extended = np.zeros((n + 1, n + 1))
        extended[:n, :n] = self._chol
        extended[n, :n] = w
        extended[n, n] = np.sqrt(pivot)
        return GpModel._from_factor(self.kernel, self.noise_variance, new_data, extended)

    @classmethod
    def _from_factor(cls, kernel, noise_variance, data, chol) -> "GpModel":
        model = cls.__new__(cls)
        model.kernel = kernel
        model.noise_variance = float(noise_variance)
        model.data = data
        model._chol = chol
        z = solve_triangular(chol, data.targets, lower=True)
        model._alpha = solve_triangular(chol, z, lower=True, trans="T")
        return model

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def prior_variance(self) -> float:
        """Predictive variance with no data: kernel amplitude plus noise."""
        return self.kernel.signal_variance + self.noise_variance

    def log_det(self) -> float:
        """ln det of the training covariance (0 for an empty model)."""
        if len(self.data) == 0:
            return 0.0
        return float(2.0 * np.sum(np.log(np.diag(self._chol))))

    def posterior_batch(self, points: np.ndarray):
        """Means and variances at many query points, shape (n,) each.

        Variances are clamped to [0, prior_variance]; conditioning on data
        can only shrink them, so anything outside is round-off.
        """
        points = _as_rows(np.atleast_2d(points), self.dim, "query points")
        kappa = self.prior_variance
        if len(self.data) == 0:
            n = points.shape[0]
            return np.zeros(n), np.full(n, kappa)
        k = self.kernel.cross(self.data.inputs, points)
        means = k.T @ self._alpha
        w = solve_triangular(self._chol, k, lower=True)
        variances = kappa - np.sum(w * w, axis=0)
        return means, np.clip(variances, 0.0, kappa)

    def posterior(self, x) -> Posterior:
        """Predictive distribution at one point."""
        x = _as_point(x, dim=self.dim)
        means, variances = self.posterior_batch(x[None, :])
        return Posterior(mean=float(means[0]), variance=float(variances[0]))

    def schur_complement(self, points) -> np.ndarray:
        """Covariance of noisy observations at the points given the training data.

        k(P, P) + (noise + jitter) I - W^T W with W = L^{-1} k(X, P), shape
        (p, p): the Schur complement of the training covariance in the
        covariance bordered by the points P. A 1-D argument is one point.
        """
        pts = _as_rows(np.atleast_2d(points), self.dim, "border points")
        block = self.kernel.cross(pts, pts)
        block[np.diag_indices(pts.shape[0])] += self._diagonal_boost()
        if len(self.data) > 0:
            k = self.kernel.cross(self.data.inputs, pts)
            w = solve_triangular(self._chol, k, lower=True)
            block = block - w.T @ w
        return block

    def extended_log_det(self, points) -> float:
        """ln det of the training covariance bordered by extra probe points.

        The (M + p) x (M + p) matrix appends, for each probe point, a
        kernel row/column against the training inputs and a diagonal
        entry of signal_variance + noise + jitter: log_det() plus the
        log-det of the points' schur_complement.
        """
        try:
            chol_block = np.linalg.cholesky(self.schur_complement(points))
        except np.linalg.LinAlgError:
            raise FactorizationError(
                "bordered covariance is singular; duplicate border points "
                "with no noise or jitter on the diagonal"
            ) from None
        return self.log_det() + float(2.0 * np.sum(np.log(np.diag(chol_block))))


def gaussian_entropy(dim: int, log_det_cov: float) -> float:
    """Differential entropy of a dim-variate Gaussian with the given ln det.

    H = dim/2 + (dim/2) ln(2 pi) + ln_det / 2, in nats.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not np.isfinite(log_det_cov):
        raise ValueError(f"log_det_cov must be finite, got {log_det_cov}")
    return 0.5 * dim * (1.0 + LOG_2PI) + 0.5 * float(log_det_cov)
