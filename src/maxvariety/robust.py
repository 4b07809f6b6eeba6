"""Scatter-matrix estimation and rectification.

Provides the sample covariance, a distribution-free fixed-point M-estimator
of scatter, rectification of an estimate toward Toeplitz structure, and the
inverse square root that whitens a panel with one of them.  The fixed point
and the cleaning pipeline's whitener invert Cholesky factors with a private
blocked triangular inverse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateDataError,
                     EigenvalueFloorWarning, InsufficientSamplesError,
                     ParameterError, SingularMatrixError)


@dataclass
class ScatterMatrix:
    """A square symmetric scatter estimate, at the scale of the estimator
    that made it.

    An iterative estimate also records its ``sweeps`` (every fixed-point
    sweep it took) and the ``residual`` its last sweep was accepted at;
    both are None on a closed-form estimate.
    """

    values: np.ndarray
    sweeps: int | None = None
    residual: float | None = None

    def __post_init__(self):
        self.values = _square(self.values, "scatter")


def _square(matrix, what: str) -> np.ndarray:
    """``matrix`` (or a ScatterMatrix's values) as a float array; raises
    ParameterError unless it is square, DegenerateDataError naming its
    first non-finite entry."""
    values = np.asarray(matrix.values if isinstance(matrix, ScatterMatrix)
                        else matrix, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError(f"{what} must be a square matrix")
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise DegenerateDataError(f"{what} entry ({row}, {col}) is not "
                                  f"finite: {float(values[row, col])!r}")
    return values


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
            f"{float(panel[asset, obs])!r}")
    return panel


def _check_squares(squares: np.ndarray, what: str) -> None:
    """Raise DegenerateDataError naming the first ``what`` (asset or
    observation) whose sum of squares overflowed to infinity."""
    over = np.flatnonzero(squares == np.inf)
    if over.size:
        raise DegenerateDataError(
            f"the sum of squares of {what} {over[0]} overflows")


def _observation_squares(panel: np.ndarray) -> np.ndarray:
    """Each observation's sum of squares; DegenerateDataError names the
    first observation that is all zero or whose sum overflows."""
    squares = np.einsum("ij,ij->j", panel, panel)
    dead = np.flatnonzero(squares == 0.0)
    if dead.size:
        raise DegenerateDataError(f"observation {dead[0]} is identically zero")
    _check_squares(squares, "observation")
    return squares


def demean_rows(panel: np.ndarray) -> np.ndarray:
    """Subtract each asset's sample mean across observations."""
    panel = _check_panel(panel)
    return panel - panel.mean(axis=1, keepdims=True)


def scm(panel, demean: bool = False) -> ScatterMatrix:
    """Sample covariance matrix (raw second moment by default).

    Pass ``demean=True`` to center each asset on its window mean first.
    An asset whose sum of squares overflows raises DegenerateDataError
    naming it.
    """
    panel = _check_panel(panel)
    if demean:
        panel = demean_rows(panel)
    n = panel.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = panel @ panel.T
    _check_squares(np.diagonal(cov), "asset")
    cov /= n
    if not np.any(cov):
        raise SingularMatrixError("sample covariance is identically zero")
    return ScatterMatrix(cov)


@dataclass(frozen=True)
class TylerConfig:
    """Settings of the fixed-point scatter iteration."""

    max_iter: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 < self.tol < math.inf:
            raise ParameterError(
                f"tol must be positive and finite, got {self.tol}")


# Up to this order _tri_inv hands a block to LAPACK's inverse whole.  On a
# 2-core host (numpy 2.4.6, OpenBLAS), inverting the Cholesky factor of a
# Tyler estimate took 0.15 ms at m=100 with leaves of 32 (halves of 50,
# leaves of 25) against 0.25 ms for np.linalg.inv of the whole factor,
# 0.18 ms with leaves of 50 and 0.23 ms with leaves of 16 to 24; at m=40
# (leaves of 20) 37 us against 40 us.
_TRI_LEAF = 32


def _tri_inv(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, lower-triangular
    with an exactly zero strict upper triangle.

    Splits ``[[A, 0], [B, D]]`` at the middle, inverts ``A`` and ``D`` by
    recursion and fills the lower-left block with ``-D^{-1} (B A^{-1})``:
    two matrix products in place of the m right-hand sides of an LU solve.
    """
    m = lower.shape[0]
    if m <= _TRI_LEAF:
        # LU of the upper-triangular transpose exchanges no rows, and its
        # back substitution leaves exact zeros below the diagonal; LU of
        # ``lower`` itself may pivot and leave rounding above it
        return np.linalg.inv(lower.T).T
    h = m // 2
    head, tail = _tri_inv(lower[:h, :h]), _tri_inv(lower[h:, h:])
    inverse = np.zeros((m, m))
    inverse[:h, :h] = head
    inverse[h:, h:] = tail
    inverse[h:, :h] = tail @ -(lower[h:, :h] @ head)
    return inverse


def _tyler_step(panel: np.ndarray, current: np.ndarray, white=None,
                scaled=None, quad=None) -> np.ndarray:
    """One fixed-point sweep: reweight samples by their Mahalanobis norm.

    With the Cholesky factor ``current = L L'``, the norm ``r' C^{-1} r`` of
    a sample is the squared length of ``L^{-1} r``, so one m x m factor, its
    triangular inverse (``_tri_inv``) and one matrix product give all N of
    them; the factor is also the sweep's test that ``current`` is positive
    definite.  ``white`` and ``scaled`` are optional m x N float buffers
    for the two panel-sized intermediates; a caller that sweeps many times
    passes the same pair to every sweep.  ``quad``, when given, holds those
    N norms already and the sweep skips the factor and the product: at
    ``current = I`` they are the samples' sums of squares, and the sweep is
    bit-identical to the factored one.
    """
    m, n = panel.shape
    if quad is None:
        try:
            factor = np.linalg.cholesky(current)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                "scatter iterate lost positive definiteness") from exc
        white = np.matmul(_tri_inv(factor), panel, out=white)
        quad = np.einsum("ij,ij->j", white, white)
    if not np.all(quad > 0.0):
        raise SingularMatrixError(
            "scatter iterate lost positive definiteness")
    scaled = np.divide(panel, np.sqrt(quad), out=scaled)
    # numpy's syrk for ``x @ x.T`` mirrors a triangle: exactly symmetric
    update = scaled @ scaled.T
    update *= m / n
    return update


# Anderson mixing (Walker & Ni 2011) extrapolates from this many of the
# latest sweep differences.
ANDERSON_DEPTH = 4
# A Gram matrix of sweep differences, scaled to a unit diagonal, that is
# worse conditioned than this marks a collinear history: it is dropped.
_GRAM_COND_LIMIT = 1e8
# Mixing starts at the first sweep that moves the iterate by less than this
# (relative Frobenius norm).  Above it, on a panel with strong factors, the
# bulk of the fixed point is still collapsing: mixing stalls there (near a
# 1e-2 residual at three factors) and plain sweeps get through the
# transient faster.  1e-2 cost m=40, N=252 windows of a weak one-factor
# market about half a sweep each, which 2e-2 does not.
_MIX_BELOW = 2e-2


class _Anderson:
    """The recent history of a fixed-point iteration and its mixing step.

    Rows of ``d_f`` and ``d_g`` hold, in a ring of ANDERSON_DEPTH slots, the
    differences between consecutive residuals ``f = G(C) - C`` and
    consecutive sweeps ``G(C)``, flattened; ``gram`` holds the inner
    products of the ``d_f`` rows and gains one row per sweep.
    """

    def __init__(self, size: int):
        self.d_f = np.empty((ANDERSON_DEPTH, size))
        self.d_g = np.empty((ANDERSON_DEPTH, size))
        self.gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.last = None
        self.count = self.slot = 0

    def clear(self) -> None:
        """Drop the stored differences; the latest sweep stays."""
        self.count = self.slot = 0

    def mix(self, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Record sweep ``g`` with residual ``f`` and return the mixed
        iterate ``g - d_g' gamma``, where ``gamma`` minimises
        ``|f - d_f' gamma|``; None when there is no usable history."""
        if self.last is not None:
            last_f, last_g = self.last
            slot = self.slot
            np.subtract(f, last_f, out=self.d_f[slot])
            np.subtract(g, last_g, out=self.d_g[slot])
            self.count = min(self.count + 1, ANDERSON_DEPTH)
            self.slot = (slot + 1) % ANDERSON_DEPTH
            row = self.d_f[:self.count] @ self.d_f[slot]
            self.gram[slot, :self.count] = row
            self.gram[:self.count, slot] = row
        self.last = (f, g)
        count = self.count
        if not count:
            return None
        gram = self.gram[:count, :count]
        norms = np.sqrt(np.diag(gram))
        if np.all(norms > 0.0):
            spread = np.linalg.eigvalsh(gram / np.outer(norms, norms))
            if spread[0] * _GRAM_COND_LIMIT > spread[-1]:
                gamma = np.linalg.solve(gram, self.d_f[:count] @ f)
                # a sum of symmetric matrices, so exactly symmetric
                mixed = g.copy()
                for weight, diff in zip(gamma, self.d_g[:count]):
                    mixed -= weight * diff
                return mixed
        self.clear()
        return None


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
    quadratic forms from the blocked triangular inverse of a Cholesky
    factor of the current iterate, except a first sweep from the identity,
    which reads them off the observations' sums of squares (computed once,
    also to find an all-zero or overflowing observation); all sweeps of one
    call share one workspace for the m x N intermediates.

    The iteration takes plain sweeps ``C <- G(C)`` until the first sweep
    whose relative residual ``|G(C) - C| / |C|`` (Frobenius) is below
    ``_MIX_BELOW``, where the plain iteration has entered its linear
    regime; from then on the iterates are Anderson mixed (Walker & Ni
    2011): from the sweep ``G(C)`` of each iterate ``C`` and the last
    ANDERSON_DEPTH differences of sweeps and residuals ``G(C) - C``, the
    next iterate is the combination of sweeps whose residuals combine to
    the least norm, put on trace m.  The stop test is unchanged: the
    iteration returns the plain sweep ``G(C)`` once its relative residual
    is below ``config.tol``, so the result is certified as a plain
    fixed-point loop's is, and it records the number of sweeps taken and
    that residual in ``sweeps`` and ``residual``.  A mixed iterate that is
    not positive definite, or a history too collinear to solve for the
    combination, is dropped: the iteration resumes from the last plain
    sweep with an empty history, and keeps mixing.  A plain iterate (the
    start or a sweep) that is not positive definite raises
    SingularMatrixError.

    The estimator assumes observations centered at zero and does not demean
    them.  Subtracting a plug-in mean first (``demean_rows``) gives every
    small-norm observation nearly the same direction, and the estimator then
    grows a spurious spike along it (the effect is strong for heavy-tailed
    data whose radial density piles up near zero).  Only demean data whose
    per-asset means are believed material and whose observation norms stay
    well away from zero.

    Requires strictly more observations than assets, finite entries (a
    non-finite one raises DegenerateDataError naming it), no all-zero
    observation and none whose sum of squares overflows (both raise
    DegenerateDataError naming the first).  Raises ConvergenceError,
    carrying the last plain sweep and its residual, if no sweep met
    ``config.tol`` within ``config.max_iter`` sweeps (a rejected mixed
    iterate counts as one).
    """
    cfg = config or TylerConfig()
    panel = _check_panel(panel)
    m, n = panel.shape
    if n <= m:
        raise InsufficientSamplesError(
            f"need more observations than assets, got m={m}, N={n}")
    squares = _observation_squares(panel)

    # a sweep from the identity takes its quadratic forms from ``squares``
    current, first = ((np.eye(m), squares) if start is None
                      else (_check_start(start, m), None))
    white, scaled = np.empty((m, n)), np.empty((m, n))
    history = _Anderson(m * m)
    plain, mixing, mixed = None, False, False
    residual = np.inf
    for sweeps in range(1, cfg.max_iter + 1):
        try:
            update = _tyler_step(panel, current, white, scaled,
                                 first if sweeps == 1 else None)
        except SingularMatrixError:
            if not mixed:
                raise
            # the extrapolation left the positive definite cone: resume
            # from the last plain sweep with an empty history
            current, mixed = plain, False
            history.clear()
            continue
        update *= m / np.trace(update)
        change = update - current
        residual = np.linalg.norm(change) / np.linalg.norm(current)
        plain = update
        if residual < cfg.tol:
            return ScatterMatrix(update, sweeps=sweeps, residual=residual)
        mixing = mixing or residual < _MIX_BELOW
        extrapolated = (history.mix(change.ravel(), update.ravel())
                        if mixing else None)
        mixed = extrapolated is not None
        if mixed:
            current = extrapolated.reshape(m, m)
            current *= m / np.trace(current)
        else:
            current = update
    raise ConvergenceError(
        f"fixed-point iteration stalled at residual {residual:.3e} "
        f"after {cfg.max_iter} sweeps (tol {cfg.tol:.1e})",
        residual=residual, iterate=plain)


def fixed_point_residual(panel, scatter) -> float:
    """Relative Frobenius defect of the scatter fixed-point equation.

    The panel is checked as in ``tyler``; a scatter that is not m x m or
    not finite raises ParameterError or DegenerateDataError naming why.
    """
    panel = _check_panel(panel)
    _observation_squares(panel)
    values = _square(scatter, "scatter")
    if len(values) != len(panel):
        raise ParameterError(f"scatter must be {len(panel)} x {len(panel)}")
    # the defect is scale-free; at unit scale its norms cannot under- or
    # overflow
    values = values / max(np.abs(values).max(), np.finfo(float).tiny)
    step = _tyler_step(panel, values)
    return np.linalg.norm(step - values) / np.linalg.norm(values)


def toeplitzify(matrix, *, biased: bool = True) -> np.ndarray:
    """Average the diagonals of a square matrix into Toeplitz form.

    The input is symmetrized first.  With ``biased=True`` every diagonal sum
    is divided by the full dimension m, which shrinks long lags toward zero
    but keeps the output positive semidefinite whenever the input is.  With
    ``biased=False`` each diagonal is divided by its own length, the
    orthogonal projection onto symmetric Toeplitz matrices; that variant is
    idempotent but can break positive semidefiniteness.  A matrix that is
    not square raises ParameterError, a non-finite entry DegenerateDataError.
    """
    matrix = _square(matrix, "toeplitzify input")
    sym = 0.5 * (matrix + matrix.T)
    m = sym.shape[0]
    lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    # each lag's mean is its first entry plus the mean deviation from it,
    # so a constant diagonal comes back exactly, as a projection must
    first = sym[:1].ravel()  # row 0, empty when m = 0
    deviations = np.bincount(lags.ravel(), (sym - first[lags]).ravel(),
                             minlength=m)
    lengths = np.arange(m, 0, -1)
    # the full matrix holds every lag but the main diagonal twice
    lag_means = first + deviations / np.where(lengths < m, 2 * lengths, m)
    if biased:
        lag_means *= lengths / m
    return lag_means[lags]


def _sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def inv_sqrt(scatter, eigen_floor: float = 1e-10) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix.

    Eigenvalues below ``eigen_floor`` times the mean eigenvalue are raised to
    that floor before inversion; doing so emits an EigenvalueFloorWarning.
    Raises SingularMatrixError when no strictly positive floor exists,
    ParameterError on a matrix that is not square and DegenerateDataError
    on a non-finite entry.
    """
    if not 0.0 <= eigen_floor < math.inf:
        raise ParameterError(
            f"eigen_floor must be >= 0 and finite, got {eigen_floor}")
    values = _square(scatter, "inv_sqrt input")
    if not values.size:
        raise ParameterError("inv_sqrt input is empty")
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
