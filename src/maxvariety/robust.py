"""Scatter-matrix estimation and rectification.

Provides the sample covariance, a distribution-free fixed-point M-estimator
of scatter, rectification of an estimate toward Toeplitz structure, and the
inverse square root that whitens a panel with one of them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateDataError,
                     EigenvalueFloorWarning, InsufficientSamplesError,
                     ParameterError, SingularMatrixError)

NORMALIZATIONS = ("trace_m", "covariance_scale")


@dataclass
class ScatterMatrix:
    """A symmetric scatter estimate plus its normalization convention.

    ``trace_m`` means the matrix trace equals its dimension (shape-only
    estimators); ``covariance_scale`` means entries are plain covariances.
    """

    values: np.ndarray
    normalization: str = "covariance_scale"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ParameterError("scatter matrix must be square")
        if self.normalization not in NORMALIZATIONS:
            raise ParameterError(
                f"unknown normalization {self.normalization!r}")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def save_scatter_csv(scatter: ScatterMatrix, path) -> None:
    """Serialize with a one-line header carrying the dimension and tag."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([scatter.dim, scatter.normalization])
        for row in scatter.values:
            writer.writerow([repr(float(v)) for v in row])


def _as_matrix(scatter) -> np.ndarray:
    if isinstance(scatter, ScatterMatrix):
        return scatter.values
    return np.asarray(scatter, dtype=float)


def _check_panel(panel) -> np.ndarray:
    panel = np.asarray(panel, dtype=float)
    if panel.ndim != 2:
        raise ParameterError("panel must be a 2-d array (assets x samples)")
    if panel.shape[1] < 1:
        raise ParameterError("panel has no observations")
    finite = np.isfinite(panel)
    if not finite.all():
        asset, obs = np.argwhere(~finite)[0]
        raise DegenerateDataError(
            f"panel entry (asset {asset}, observation {obs}) is not finite: "
            f"{panel[asset, obs]!r}")
    return panel


def demean_rows(panel: np.ndarray) -> np.ndarray:
    """Subtract each asset's sample mean across observations."""
    panel = _check_panel(panel)
    return panel - panel.mean(axis=1, keepdims=True)


def scm(panel, demean: bool = False) -> ScatterMatrix:
    """Sample covariance matrix (raw second moment by default).

    Pass ``demean=True`` to center each asset on its window mean first.
    """
    panel = _check_panel(panel)
    if demean:
        panel = demean_rows(panel)
    n = panel.shape[1]
    cov = (panel @ panel.T) / n
    cov = 0.5 * (cov + cov.T)
    if not np.any(cov):
        raise SingularMatrixError("sample covariance is identically zero")
    return ScatterMatrix(cov, normalization="covariance_scale")


@dataclass(frozen=True)
class TylerConfig:
    """Settings of the fixed-point scatter iteration."""

    max_iter: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ParameterError(f"tol must be positive, got {self.tol}")


def _tyler_step(panel: np.ndarray, current: np.ndarray) -> np.ndarray:
    """One fixed-point sweep: reweight samples by their Mahalanobis norm.

    With the Cholesky factor ``current = L L'``, the norm ``r' C^{-1} r`` of
    a sample is the squared length of ``L^{-1} r``, so one m x m factor and
    one matrix product give all N of them.
    """
    m, n = panel.shape
    try:
        factor = np.linalg.cholesky(current)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "scatter iterate lost positive definiteness") from exc
    white = np.linalg.inv(factor) @ panel
    quad = np.einsum("ij,ij->j", white, white)
    if not np.all(quad > 0.0):
        raise SingularMatrixError(
            "scatter iterate lost positive definiteness")
    scaled = panel / np.sqrt(quad)
    update = (m / n) * (scaled @ scaled.T)
    return 0.5 * (update + update.T)


def _check_start(start, m: int) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape != (m, m):
        raise ParameterError(
            f"start must be {m} x {m}, got shape {start.shape}")
    if not np.isfinite(start).all():
        raise ParameterError("start has a non-finite entry")
    try:
        np.linalg.cholesky(start)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("start is not positive definite") from exc
    return start * (m / np.trace(start))


def tyler(panel, config: TylerConfig | None = None, *,
          start=None) -> ScatterMatrix:
    """Distribution-free scatter estimate, normalized to trace m.

    Solves ``C = (m/N) * sum_t r_t r_t' / (r_t' C^{-1} r_t)`` by fixed-point
    iteration, renormalizing the trace to m after every sweep.  The iteration
    starts from the identity, or from ``start`` (an m x m positive definite
    matrix, scaled to trace m first) when one is given: a start at the fixed
    point returns after one sweep, which certifies it.  A start of the wrong
    shape or with a non-finite entry raises ParameterError; one that is not
    positive definite raises SingularMatrixError.  Per-sample scale factors
    cancel inside the quadratic form, so the estimate ignores any
    heavy-tailed radial component of the data.  Each sweep takes the
    quadratic forms from a Cholesky factor of the current iterate; an
    iterate that is not positive definite raises SingularMatrixError.

    The estimator assumes observations centered at zero and does not demean
    them.  Subtracting a plug-in mean first (``demean_rows``) gives every
    small-norm observation nearly the same direction, and the estimator then
    grows a spurious spike along it (the effect is strong for heavy-tailed
    data whose radial density piles up near zero).  Only demean data whose
    per-asset means are believed material and whose observation norms stay
    well away from zero.

    Requires strictly more observations than assets, finite entries (a
    non-finite one raises DegenerateDataError naming it) and no all-zero
    observation.  Raises ConvergenceError (carrying the last residual) if the
    relative Frobenius change is still above ``config.tol`` after
    ``config.max_iter`` sweeps.
    """
    cfg = config or TylerConfig()
    panel = _check_panel(panel)
    m, n = panel.shape
    if n <= m:
        raise InsufficientSamplesError(
            f"need more observations than assets, got m={m}, N={n}")
    norms = np.linalg.norm(panel, axis=0)
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise DegenerateDataError(
            f"observation {dead[0]} is identically zero")

    current = np.eye(m) if start is None else _check_start(start, m)
    residual = np.inf
    for _ in range(cfg.max_iter):
        update = _tyler_step(panel, current)
        update *= m / np.trace(update)
        residual = (np.linalg.norm(update - current)
                    / np.linalg.norm(current))
        current = update
        if residual < cfg.tol:
            return ScatterMatrix(current, normalization="trace_m")
    raise ConvergenceError(
        f"fixed-point iteration stalled at residual {residual:.3e} "
        f"after {cfg.max_iter} sweeps (tol {cfg.tol:.1e})",
        residual=residual, iterate=current)


def fixed_point_residual(panel, scatter) -> float:
    """Relative Frobenius defect of the scatter fixed-point equation."""
    panel = _check_panel(panel)
    values = _as_matrix(scatter)
    step = _tyler_step(panel, values)
    return np.linalg.norm(step - values) / np.linalg.norm(values)


def toeplitzify(matrix, *, biased: bool = True) -> np.ndarray:
    """Average the diagonals of a square matrix into Toeplitz form.

    The input is symmetrized first.  With ``biased=True`` every diagonal sum
    is divided by the full dimension m, which shrinks long lags toward zero
    but keeps the output positive semidefinite whenever the input is.  With
    ``biased=False`` each diagonal is divided by its own length, the
    orthogonal projection onto symmetric Toeplitz matrices; that variant is
    idempotent but can break positive semidefiniteness.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError("toeplitzify needs a square matrix")
    sym = 0.5 * (matrix + matrix.T)
    m = sym.shape[0]
    lag_means = np.empty(m)
    for lag in range(m):
        diag = np.diagonal(sym, offset=lag)
        if not biased and np.ptp(diag) == 0.0:
            # summing k copies of a float and dividing by k can round, which
            # would break the projection's exact idempotence
            lag_means[lag] = diag[0]
        else:
            lag_means[lag] = diag.sum() / (m if biased else (m - lag))
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return lag_means[idx]


def _sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def inv_sqrt(scatter, eigen_floor: float = 1e-10) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix.

    Eigenvalues below ``eigen_floor`` times the mean eigenvalue are raised to
    that floor before inversion; doing so emits an EigenvalueFloorWarning.
    Raises SingularMatrixError when no strictly positive floor exists.
    """
    if eigen_floor < 0.0:
        raise ParameterError(f"eigen_floor must be >= 0, got {eigen_floor}")
    values = _as_matrix(scatter)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError("inv_sqrt needs a square matrix")
    sym = 0.5 * (values + values.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    mean = eigvals.mean()
    floor = eigen_floor * mean
    if mean <= 0.0 or floor <= 0.0 and eigvals.min() <= 0.0:
        raise SingularMatrixError(
            "matrix is singular or indefinite; cannot form inverse square root")
    n_floored = int(np.count_nonzero(eigvals < floor))
    if n_floored:
        warnings.warn(
            f"floored {n_floored} eigenvalue(s) below {floor:.3e} "
            f"before inversion", EigenvalueFloorWarning, stacklevel=2)
        eigvals = np.maximum(eigvals, floor)
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
