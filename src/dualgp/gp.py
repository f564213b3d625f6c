"""Exact Gaussian-process regression for small, growing data sets.

The controller in this package observes one data point per step, so the
model is built around cheap incremental updates: a cached Cholesky factor
of the noisy covariance matrix is extended by one row per observation,
written in place into a buffer whose capacity doubles, and every query
(posterior mean/variance, bordered log-determinants for information
scoring) is answered through triangular solves against that factor. No
explicit matrix inverse is ever formed.
"""

import copy
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

__all__ = [
    "FactorizationError",
    "KernelConfig",
    "DataSet",
    "GpModel",
]

# below this separation two points count as duplicates
DUPLICATE_TOL = 1e-12


def _flapack(directory):
    """scipy's compiled LAPACK wrappers in ``directory``, loaded without scipy.linalg's __init__.

    Registered under their package name, so a later ``import scipy.linalg`` shares them.
    """
    name = "scipy.linalg._flapack"
    paths = [os.path.join(directory, "_flapack" + suffix) for suffix in EXTENSION_SUFFIXES]
    found = [p for p in paths if os.path.isfile(p)]
    if not found:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    if name not in sys.modules:
        spec = spec_from_file_location(name, found[0])
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_SCIPY = find_spec("scipy")
if _SCIPY is None:
    raise ImportError(f"dualgp needs scipy, which is not on sys.path {sys.path}")
_TRTRS = _flapack(os.path.join(os.path.dirname(_SCIPY.origin), "linalg")).dtrtrs


class FactorizationError(ValueError):
    """Covariance matrix could not be factorized (not positive definite)."""


def solve_triangular(chol, rhs, trans=False):
    """Solve L x = rhs, or L^T x = rhs with ``trans``, for a C-ordered lower factor L.

    ``chol`` may be (n, cap), cap > n, with L its first n columns: the rows
    of a factor buffer, passed uncopied with leading dimension cap. scipy's
    dtrtrs call for such a factor, with the same bits, minus its finiteness
    scans: every factor and right-hand side here is finite.
    """
    x, info = _TRTRS(chol.T, rhs, lower=False, trans=not trans)
    if info != 0:
        raise FactorizationError(f"triangular solve failed (LAPACK dtrtrs info {info})")
    return x


def _as_point(x, dim=None):
    """Coerce one point (a scalar is a 1-D point) to a finite (1, d) float row."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"a point must be a nonempty vector, got shape {p.shape}")
    return _as_rows(p[None, :], dim, "points")


def _as_rows(values, dim, what):
    """Coerce a point set to a finite (n, d) float array; 1-D input is n scalars.

    ``what`` names the points in errors. Empty input takes ``dim`` if it is
    given; without it, only a (0, d) array says its d.
    """
    rows = np.asarray(values, dtype=float)
    if rows.size == 0 and dim is not None:
        rows = rows.reshape(0, dim)
    if rows.ndim == 1:
        if rows.size == 0:
            raise ValueError(f"{what} are empty and no dimension was given")
        rows = rows[:, None]
    if rows.ndim != 2:
        raise ValueError(f"{what} must be an (n, d) array, got shape {rows.shape}")
    if rows.shape[1] == 0:
        raise ValueError(f"{what} have no dimension, got shape {rows.shape}")
    if dim is not None and rows.shape[1] != dim:
        raise ValueError(f"{what} have dimension {rows.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} contain non-finite values")
    return rows


def _sq_dist(rows, cols):
    """Squared distances between two (n, d) point sets, shape (len(rows), len(cols)).

    Summed one dimension at a time, so no (n, m, d) temporary is built.
    """
    d2 = np.zeros((rows.shape[0], cols.shape[0]))
    # divergent points may overflow to inf: kernel value 0, never a duplicate
    with np.errstate(over="ignore"):
        for j in range(rows.shape[1]):
            d2 += (rows[:, j, None] - cols[None, :, j]) ** 2
    return d2


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
        if not (0 < self.signal_variance < np.inf):
            raise ValueError(f"signal_variance must be finite and > 0, got {self.signal_variance}")
        if not (0 < self.length_scale < np.inf):
            raise ValueError(f"length_scale must be finite and > 0, got {self.length_scale}")
        if not (0 <= self.jitter < np.inf):
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")

    def cross(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kernel matrix between two point sets, shape (len(rows), len(cols))."""
        return self._from_sq_dist(_sq_dist(np.atleast_2d(rows), np.atleast_2d(cols)))

    def _from_sq_dist(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values at the squared distances ``d2``, entry by entry."""
        return self.signal_variance * np.exp(-0.5 * d2 / self.length_scale**2)


class DataSet:
    """Immutable training set: M input vectors of equal dimension plus M scalar targets."""

    def __init__(self, inputs, targets):
        inputs = _as_rows(inputs, None, "inputs")
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} inputs but {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        self._freeze(inputs, targets)

    def _freeze(self, inputs, targets):
        self.inputs, self.targets = inputs, targets
        inputs.setflags(write=False)
        targets.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def append(self, x, y) -> "DataSet":
        """New set with one more pair; only the new pair is checked, stored rows already were."""
        point, target = _as_point(x, dim=self.dim), float(y)
        if not np.isfinite(target):
            raise ValueError("targets contain non-finite values")
        data = DataSet.__new__(DataSet)
        data._freeze(np.vstack([self.inputs, point]), np.append(self.targets, target))
        return data


def _singular_error(inputs):
    """FactorizationError for a singular training covariance, naming duplicate inputs."""
    i, j = np.nonzero(np.triu(_sq_dist(inputs, inputs) <= DUPLICATE_TOL**2, k=1))
    pairs = list(zip(i.tolist(), j.tolist()))
    if pairs:
        return FactorizationError(
            "training covariance is singular; duplicate input pairs "
            f"(index pairs {pairs}) with no noise or jitter on the diagonal"
        )
    return FactorizationError("training covariance is not positive definite")


class GpModel:
    """Zero-mean GP conditioned on a DataSet, with a cached Cholesky factor.

    Immutable: adding an observation returns a new model value, and a query
    only caches its solved column for an append of the same row, as one
    (row, column) tuple that threads replace whole. The factor is the first
    M rows of a (cap, cap) buffer. Only a model's first append may write
    row M of that buffer in place: the model holds that right as a
    one-item list, and an append takes it with one atomic pop. Any later
    append to the same model, from any thread, copies to a new buffer, so
    branches never see each other's rows. The covariance of the training
    set is K + (noise_variance + jitter) * I where K is the kernel Gram
    matrix; the prior predictive variance at any point is kappa =
    signal_variance + noise_variance.
    """

    def __init__(self, kernel: KernelConfig, noise_variance: float, data: DataSet):
        if not (0 <= noise_variance < np.inf):
            raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.data = data
        self._set_factor(self._factorize())

    @classmethod
    def empty(cls, kernel: KernelConfig, noise_variance: float, dim: int) -> "GpModel":
        return cls(kernel, noise_variance, DataSet(np.zeros((0, dim)), np.zeros(0)))

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
            raise _singular_error(self.data.inputs) from None

    def _set_factor(self, buf):
        """Adopt the first M rows of a factor buffer and compute alpha = C^{-1} y."""
        self._spare = [buf]  # the first append's right to write row M in place
        self._chol = chol = buf[: len(self.data)]
        self._solved = None  # (row bytes, w) of this factor's last one-row query solve
        if len(self.data) > 0:
            z = solve_triangular(chol, self.data.targets)
            self._alpha = solve_triangular(chol, z, trans=True)
        else:
            self._alpha = np.zeros(0)

    def with_observation(self, x, y) -> "GpModel":
        """New model with one more (input, target) pair.

        Extends the cached factor by a single row instead of refactorizing
        the full matrix, in place unless the factor must first move to a
        new buffer of about twice its size. The new row's column w =
        L^{-1} k(X, x) is the last one-row query's when that row is x,
        bit for bit, and is solved otherwise. A squared pivot of at most
        (M + 1) eps (signal_variance + noise + jitter), M the stored points,
        is round-off: FactorizationError.
        """
        new_data = self.data.append(x, y)
        n = len(self.data)
        w = np.zeros(0)
        solved = self._solved
        if solved is not None and solved[0] == new_data.inputs[n].tobytes():
            w = solved[1]
        elif n > 0:
            k = self.kernel.cross(self.data.inputs, new_data.inputs[n:])[:, 0]
            w = solve_triangular(self._chol, k)
        diagonal = self.kernel.signal_variance + self._diagonal_boost()
        pivot = diagonal - float(w @ w)
        if pivot <= (n + 1) * np.finfo(float).eps * diagonal:
            raise _singular_error(new_data.inputs)
        try:
            buf = self._spare.pop()
        except IndexError:  # an earlier append to this model took the right
            buf = None
        if buf is None or n == len(buf):
            buf = np.zeros((2 * n + 1, 2 * n + 1))
            buf[:n, :n] = self._chol[:, :n]
        buf[n, :n] = w
        buf[n, n] = np.sqrt(pivot)
        model = copy.copy(self)
        model.data = new_data
        model._set_factor(buf)
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

        One row repeated (an action grid under additive control) is solved
        against the factor once, and its variance goes to every copy; the
        mean is still taken per row. Any other rows are solved as given.
        A 1-D argument is one point.
        Variances are clamped to [0, prior_variance]; conditioning on data
        can only shrink them, so anything outside is round-off.
        """
        points = _as_rows(np.atleast_2d(points), self.dim, "query points")
        kappa, n = self.prior_variance, points.shape[0]
        if len(self.data) == 0 or n == 0:
            return np.zeros(n), np.full(n, kappa)
        repeated = (points == points[:1]).all()
        k = self.kernel.cross(self.data.inputs, points[:1] if repeated else points)
        # np.repeat keeps C order and so the bits of k(X, points).T @ alpha
        means = (np.repeat(k, n, axis=1) if repeated else k).T @ self._alpha
        w = solve_triangular(self._chol, k)
        variances = kappa - np.sum(w * w, axis=0)
        if repeated:  # keep the column an append of this row needs, with the same bits
            self._solved = (points[0].tobytes(), w[:, 0])
            variances = np.repeat(variances, n)
        return means, np.clip(variances, 0.0, kappa)

    def schur_complement(self, points) -> np.ndarray:
        """Covariance of noisy observations at the points given the training data.

        k(P, P) + (noise + jitter) I - W^T W with W = L^{-1} k(X, P), shape
        (p, p): the Schur complement of the training covariance in the
        covariance bordered by the points P. A 1-D argument is one point.
        """
        pts = _as_rows(np.atleast_2d(points), self.dim, "border points")
        return self._schur_complement(pts, self.kernel.cross(self.data.inputs, pts))

    def _schur_complement(self, pts, k):
        """schur_complement of checked points ``pts``, given k = k(X, pts).

        A Fortran-ordered ``k`` spares the triangular solve a transposing copy.
        """
        block = self.kernel.cross(pts, pts)
        block[np.diag_indices(pts.shape[0])] += self._diagonal_boost()
        if len(self.data) > 0:
            w = solve_triangular(self._chol, k)
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
