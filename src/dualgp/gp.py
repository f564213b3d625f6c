"""Exact Gaussian-process regression for small, growing data sets.

The controller in this package observes one data point per step, so the
model is built around cheap incremental updates: a cached Cholesky factor
of the noisy covariance matrix is extended by one row per observation,
written in place into a buffer whose capacity doubles, and every query
(posterior mean/variance, the Schur complements behind information
scoring) is answered through triangular solves against that factor. No
explicit matrix inverse is ever formed.
"""

import math
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
_EPS = np.finfo(float).eps


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


def solve_triangular(chol, rhs, trans=False, overwrite_b=False):
    """Solve L x = rhs, or L^T x = rhs with ``trans``, for a C-ordered lower factor L.

    ``chol`` may be (n, cap), cap > n, with L its first n columns: the rows
    of a factor buffer, passed uncopied with leading dimension cap. scipy's
    dtrtrs call for such a factor, with the same bits, minus its finiteness
    scans: every factor and right-hand side here is finite. ``overwrite_b``
    lets a Fortran-ordered ``rhs`` that the caller drops hold the solution;
    LAPACK writes it even where the array is marked read-only. A 0 x 0 factor
    solves to its empty ``rhs`` with no LAPACK call, which would reject it.
    """
    if chol.shape[0] == 0:
        return rhs
    x, info = _TRTRS(chol.T, rhs, lower=False, trans=not trans, overwrite_b=overwrite_b)
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

    ``what`` names the points in errors. Input with no rows takes ``dim`` if
    it is given; without it, only a (0, d) array says its d.
    """
    rows = np.asarray(values, dtype=float)
    if dim is not None and rows.shape[:1] == (0,):
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
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} contain non-finite values")
    return rows


def _sq_dist(rows, cols):
    """Squared distances between two (n, d) point sets, shape (len(rows), len(cols)).

    Summed one dimension at a time, so no (n, m, d) temporary is built.
    """
    # divergent points may overflow to inf: kernel value 0, never a duplicate
    with np.errstate(over="ignore"):
        d2 = (rows[:, 0, None] - cols[None, :, 0]) ** 2
        for j in range(1, rows.shape[1]):
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
        # a negative scale has a positive square; a tiny one's square is 0
        if not (0 < self.length_scale and 0 < self.length_scale * self.length_scale < np.inf):
            raise ValueError(
                f"length_scale must be > 0 with a finite, nonzero square, got {self.length_scale}"
            )
        if not (0 <= self.jitter < np.inf):
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")

    def cross(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kernel matrix between two point sets of one dimension, shape (len(rows), len(cols))."""
        rows, cols = np.atleast_2d(rows), np.atleast_2d(cols)
        if rows.shape[1] != cols.shape[1]:
            raise ValueError(f"point sets have dimensions {rows.shape[1]} and {cols.shape[1]}")
        return self._from_sq_dist(_sq_dist(rows, cols))

    def _from_sq_dist(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values a * exp(-0.5 * d2 / l^2) at squared distances ``d2``, in one new array."""
        k = np.multiply(d2, -0.5)
        with np.errstate(over="ignore"):  # far points overflow to -inf: kernel value 0
            k /= self.length_scale**2
        return np.multiply(np.exp(k, out=k), self.signal_variance, out=k)


class DataSet:
    """Immutable training set: M input vectors of equal dimension plus M scalar targets.

    A model's ``data`` views its storage; GpModel.with_observation grows it.
    """

    def __init__(self, inputs, targets):
        inputs = _as_rows(inputs, None, "inputs").copy()  # the caller keeps its own arrays
        targets = np.array(targets, dtype=float).reshape(-1)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"{inputs.shape[0]} inputs but {targets.shape[0]} targets")
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


class GpModel:
    """Zero-mean GP conditioned on a DataSet, with a cached Cholesky factor.

    Immutable: adding an observation returns a new model value, and a query
    only caches its solved column for an append of the same row, as one
    (row, column) tuple that threads replace whole. The factor, inputs and
    targets are the first M rows of three buffers of one capacity, and
    ``data`` is a read-only view of the latter two. Only a model's first
    append may write row M of those buffers in place: the model holds that
    right as a one-item list, and an append takes it with one atomic pop.
    Any later append to the same model, from any thread, copies to new
    buffers, so branches never see each other's rows. The covariance of the
    training set is K + (noise_variance + jitter) * I where K is the kernel
    Gram matrix; the prior predictive variance at any point is kappa =
    signal_variance + noise_variance.

    Built from M rows, a model appends them one at a time by with_observation's
    rule (``_pivot``), so it equals that chain of appends bit for bit and raises
    where it does: M + 1 one-column solves, about 0.6-0.7 ms at M = 100 and 71-75
    ms at M = 1000 (one BLAS thread, shared 2-vCPU Xeon).
    """

    def __init__(self, kernel: KernelConfig, noise_variance: float, data: DataSet):
        if not (0 <= noise_variance < np.inf):
            raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.data = data
        cov, chol = self.covariance_matrix(), np.zeros((len(data), len(data)))
        for m, row in enumerate(chol):  # row m as with_observation appends it to m rows
            row[:m] = solve_triangular(chol[:m], cov[m, :m], overwrite_b=True)
            row[m] = self._pivot(row[:m], data.inputs[:m], data.inputs[m : m + 1])
        self._set_factor((chol, data.inputs, data.targets))

    @classmethod
    def empty(cls, kernel: KernelConfig, noise_variance: float, dim: int) -> "GpModel":
        return cls(kernel, noise_variance, DataSet(np.zeros((0, dim)), np.zeros(0)))

    # -- construction ------------------------------------------------------

    def _diagonal_boost(self) -> float:
        return self.noise_variance + self.kernel.jitter

    def covariance_matrix(self) -> np.ndarray:
        """Dense training covariance K + (noise + jitter) I, shape (M, M)."""
        c = self.kernel.cross(self.data.inputs, self.data.inputs)
        c[np.diag_indices(len(self.data))] += self._diagonal_boost()
        return c

    def _pivot(self, w, inputs, point) -> float:
        """Diagonal entry sqrt(c - w^T w), c = signal_variance + noise + jitter, of
        the factor row w that appends the (1, d) ``point`` to the M factorized ``inputs``.

        The one round-off rule: a squared pivot of at most 100 (M + 1) eps c raises
        FactorizationError, naming the inputs that ``point``, index M, duplicates.
        Rounding alone moves c - w^T w by up to about (M + 1) eps c (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, ch. 3 and 8): two
        close rows at 22 times that still put the posterior mean 5e-3 off.
        """
        diagonal = self.kernel.signal_variance + self._diagonal_boost()
        pivot = diagonal - float(w @ w)
        if pivot > 100 * (len(inputs) + 1) * _EPS * diagonal:
            return math.sqrt(pivot)
        dups = np.flatnonzero(_sq_dist(inputs, point) <= DUPLICATE_TOL**2).tolist()
        pairs = [(i, len(inputs)) for i in dups]
        if pairs:
            raise FactorizationError(
                "training covariance is singular; duplicate input pairs "
                f"(index pairs {pairs}) with no noise or jitter on the diagonal"
            )
        raise FactorizationError("training covariance is not positive definite")

    def _set_factor(self, bufs):
        """Adopt the (factor, inputs, targets) buffers of ``data``; alpha = C^{-1} y.

        Targets near the float maximum can overflow alpha: FactorizationError.
        """
        self._spare = [bufs]  # the first append's right to write row M in place
        self._chol = chol = bufs[0][: len(self.data)]
        self._solved = None  # (row bytes, w) of this factor's last one-row query solve
        z = solve_triangular(chol, self.data.targets)
        self._alpha = solve_triangular(chol, z, trans=True, overwrite_b=True)
        if not np.isfinite(self._alpha).all():
            raise FactorizationError("training targets overflow alpha = C^{-1} y")

    def with_observation(self, x, y) -> "GpModel":
        """New model with one more (input, target) pair.

        Checks only the new pair; the stored rows already were. Extends the
        cached factor, inputs and targets by a single row instead of
        refactorizing the full matrix, in place unless they must first move
        to new buffers of about twice the size. The new row's column w =
        L^{-1} k(X, x) is the last one-row query's when that row is x,
        bit for bit, and is solved otherwise; ``_pivot`` checks its pivot.
        """
        point, target = _as_point(x, dim=self.dim), float(y)
        if not math.isfinite(target):
            raise ValueError("targets contain non-finite values")
        n = len(self.data)
        solved = self._solved
        if solved is not None and solved[0] == point.tobytes():
            w = solved[1]
        else:
            k = self.kernel.cross(self.data.inputs, point)[:, 0]
            w = solve_triangular(self._chol, k, overwrite_b=True)
        pivot = self._pivot(w, self.data.inputs, point)
        try:
            buf, inputs, targets = self._spare.pop()
        except IndexError:  # an earlier append to this model took the right
            buf = None
        if buf is None or n == len(buf):
            cap = 2 * n + 1
            buf, inputs, targets = np.zeros((cap, cap)), np.empty((cap, self.dim)), np.empty(cap)
            buf[:n, :n] = self._chol[:, :n]
            inputs[:n], targets[:n] = self.data.inputs, self.data.targets
        buf[n, :n] = w
        buf[n, n] = pivot
        inputs[n], targets[n] = point[0], target
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model.data = DataSet.__new__(DataSet)
        model.data._freeze(inputs[: n + 1], targets[: n + 1])
        model._set_factor((buf, inputs, targets))
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
        return float(2.0 * np.sum(np.log(np.diag(self._chol))))

    def posterior_batch(self, points: np.ndarray):
        """Means and variances at many query points, shape (n,) each.

        One row repeated (an action grid under additive control) is solved
        against the factor once, and its variance goes to every copy; its
        means come from a (4 + n mod 4)-row product with the bits of the
        n-row one (README). Any other rows are solved as given.
        A 1-D argument is one point.
        Variances are clamped to [0, prior_variance]; conditioning on data
        can only shrink them, so anything outside is round-off.
        """
        points = _as_rows(np.atleast_2d(points), self.dim, "query points")
        kappa, n = self.prior_variance, points.shape[0]
        repeated = n > 0 and (points == points[:1]).all()
        k = self.kernel.cross(self.data.inputs, points[:1] if repeated else points)
        if repeated and n >= 4:  # BLAS gives each group of 4 rows one sum, the n % 4 tail its own
            r = np.repeat(k, 4 + n % 4, axis=1).T @ self._alpha
            means = np.append(np.full(n - n % 4, r[0]), r[4:])
        else:  # np.repeat keeps C order and so the bits of k(X, points).T @ alpha
            means = (np.repeat(k, n, axis=1) if repeated else k).T @ self._alpha
        w = solve_triangular(self._chol, k, overwrite_b=True)
        variances = (kappa - np.add.reduce(w * w, axis=0)).clip(0.0, kappa)
        if repeated:  # keep the column an append of this row needs, with the same bits
            self._solved = (points[0].tobytes(), w[:, 0])
            variances = variances.repeat(n)
        return means, variances

    def _schur_complement(self, pts, k):
        """Covariance of noisy observations at the checked points ``pts`` given the data.

        k(P, P) + (noise + jitter) I - W^T W with W = L^{-1} k, k = k(X, P),
        shape (p, p): the Schur complement of the training covariance in the
        covariance bordered by the points P. The solve overwrites ``k``; a
        Fortran-ordered one it also spares a copy.
        """
        block = self.kernel.cross(pts, pts)
        block[np.diag_indices(pts.shape[0])] += self._diagonal_boost()
        w = solve_triangular(self._chol, k, overwrite_b=True)
        return block - w.T @ w
