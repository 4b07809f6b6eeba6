"""Scatter-matrix estimation and rectification.

Provides the sample covariance, a distribution-free fixed-point M-estimator
of scatter, rectification of an estimate toward Toeplitz structure, and an
inverse symmetric square root.  The fixed point and the cleaning pipeline's
whitener invert Cholesky factors with a private blocked triangular inverse.
Each argument rule has one check: ``_floats`` (an array argument as floats),
``_square``, ``_check_panel``, ``_count`` (an integer with a lower bound),
``_real`` (a real number in a range, as a float) and ``_config`` (a
settings object of its class); ``_tyler_step`` judges each observation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, ParameterError


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


def _square(matrix, what: str, size: int | None = None) -> np.ndarray:
    """``matrix`` (or a ScatterMatrix's values) as a float array; raises
    ParameterError unless it is square (``size`` x ``size`` if given),
    DegenerateDataError naming its first non-finite entry."""
    values = _floats(matrix.values if isinstance(matrix, ScatterMatrix)
                     else matrix, what)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError(f"{what} must be a square matrix")
    if size is not None and len(values) != size:
        raise ParameterError(f"{what} must be {size} x {size}")
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise DegenerateDataError(f"{what} entry ({row}, {col}) is not "
                                  f"finite: {float(values[row, col])!r}")
    return values


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; ParameterError ``<what> must hold real
    numbers`` for text, a ragged nesting or a complex number (numpy would
    drop the imaginary part of a complex array)."""
    try:
        if not np.iscomplexobj(value):
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"{what} must hold real numbers")


def _count(name: str, value, low: int) -> None:
    """ParameterError unless ``value`` is an integer, not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")


def _real(name: str, value, low: float = 0.0, high: float = math.inf,
          rule: str = "be positive and finite", *,
          closed: bool = False) -> float:
    """``value`` as a float in ``(low, high)`` (``[low, high)`` if
    ``closed``); ParameterError ``<name> must <rule>, got <value!r>`` for a
    bool, a non-real or a value outside, ``<name> is too large for a float``
    for an integer past the float range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan  # NaN: out of any range
    except OverflowError:
        raise ParameterError(f"{name} is too large for a float") from None
    if not ((low <= number if closed else low < number) and number < high):
        raise ParameterError(f"{name} must {rule}, got {value!r}")
    return number


def _config(name: str, value, kind: type, *, nested: bool = False):
    """``value``, or ``kind()`` for an argument (not ``nested``) of None;
    ParameterError naming ``name`` for anything else that is not a kind."""
    if value is None and not nested:
        return kind()
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _check_panel(panel) -> np.ndarray:
    """``panel`` as a float array; ParameterError unless it is 2-d with an
    asset and an observation, DegenerateDataError naming its first
    non-finite entry."""
    panel = _floats(panel, "panel")
    if panel.ndim != 2:
        raise ParameterError("panel must be a 2-d array (assets x samples)")
    if panel.shape[0] < 1:
        raise ParameterError("panel has no assets")
    if panel.shape[1] < 1:
        raise ParameterError("panel has no observations")
    finite = np.isfinite(panel)
    if not finite.all():
        asset, obs = np.argwhere(~finite)[0]
        raise DegenerateDataError(
            f"panel entry (asset {asset}, observation {obs}) is not finite: "
            f"{float(panel[asset, obs])!r}")
    return panel


def _check_squares(squares: np.ndarray) -> None:
    """Raise DegenerateDataError naming the first asset whose sum of
    squares overflowed to infinity."""
    over = np.flatnonzero(squares == np.inf)
    if over.size:
        raise DegenerateDataError(
            f"the sum of squares of asset {over[0]} overflows")


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
    _check_squares(np.diagonal(cov))
    cov /= n
    if not np.any(cov):
        raise DegenerateDataError("sample covariance is identically zero")
    return ScatterMatrix(cov)


@dataclass(frozen=True)
class TylerConfig:
    """Settings of the fixed-point scatter iteration."""

    max_iter: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        _count("max_iter", self.max_iter, 1)
        _real("tol", self.tol)


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


def _tyler_step(panel: np.ndarray, current: np.ndarray, work=None,
                quad=None) -> np.ndarray:
    """One fixed-point sweep: reweight samples by their Mahalanobis norm.

    With the Cholesky factor ``current = L L'``, the norm ``r' C^{-1} r`` of
    a sample is the squared length of ``L^{-1} r``, so one m x m factor, its
    triangular inverse (``_tri_inv``) and one matrix product give all N of
    them; the factor is also the sweep's test that ``current`` is positive
    definite.  The whitened panel and then the reweighted one are written
    to ``work``, an optional m x N float buffer, which a caller that sweeps
    many times passes to every sweep.  ``quad``, when given, holds those
    N norms already and the sweep skips the factor and the product: at
    ``current = I`` they are the samples' sums of squares, and the sweep is
    bit-identical to the factored one.  Each norm must be a normal positive
    float: DegenerateDataError names the first observation whose is not.
    """
    m, n = panel.shape
    if quad is None:
        try:
            factor = np.linalg.cholesky(current)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(
                "scatter iterate lost positive definiteness") from exc
        work = np.matmul(_tri_inv(factor), panel, out=work)
        quad = np.einsum("ij,ij->j", work, work)
    tiny = np.finfo(float).tiny
    usable = (quad >= tiny) & (quad < np.inf)
    if not usable.all():
        t = np.argmin(usable)
        raise DegenerateDataError(f"observation {t} is " + (
            "identically zero" if not panel[:, t].any()
            else "too small: its quadratic form underflows" if quad[t] < tiny
            else "too large: its quadratic form overflows"))
    scaled = np.divide(panel, np.sqrt(quad), out=work)
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
    start = _square(start, "start", m)
    # rescaled onto trace m, an indefinite start such as -I would pass
    try:
        np.linalg.cholesky(start)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError("start is not positive definite") from exc
    return start * (m / np.trace(start))


def tyler(panel, config: TylerConfig | None = None, *,
          start=None) -> ScatterMatrix:
    """Distribution-free scatter estimate, normalized to trace m.

    Solves ``C = (m/N) * sum_t r_t r_t' / (r_t' C^{-1} r_t)`` by fixed-point
    iteration, renormalizing the trace to m after every sweep.  The iteration
    starts from the identity, or from ``start`` (an m x m positive definite
    matrix, scaled to trace m first) when one is given: a start at the fixed
    point returns after one sweep, which certifies it.  A wrong start raises
    ParameterError (shape) or DegenerateDataError (a non-finite entry, named,
    or not positive definite).  Per-sample scale factors cancel inside the
    quadratic form, so the estimate ignores any
    heavy-tailed radial component of the data.  Each sweep takes the
    quadratic forms from the blocked triangular inverse of a Cholesky
    factor of the current iterate, except a first sweep from the identity,
    which reads them off the observations' sums of squares (a call with
    ``start`` computes none); all sweeps of one call share one m x N
    workspace.

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
    that residual in ``sweeps`` and ``residual``.  A mixed iterate whose
    sweep is refused, or a history too collinear to solve for the
    combination, is dropped: the iteration resumes from the last plain
    sweep with an empty history, and keeps mixing.  A plain iterate (the
    start or a sweep) whose sweep is refused raises DegenerateDataError.

    The estimator assumes observations centered at zero and does not demean
    them.  Subtracting a plug-in mean first (``demean_rows``) gives every
    small-norm observation nearly the same direction, and the estimator then
    grows a spurious spike along it (the effect is strong for heavy-tailed
    data whose radial density piles up near zero).  Only demean data whose
    per-asset means are believed material and whose observation norms stay
    well away from zero.

    Requires assets, strictly more observations than assets, finite
    entries (a non-finite one raises DegenerateDataError naming it), and
    at every sweep a normal positive quadratic form of each observation
    (DegenerateDataError names the first that is identically zero, too
    small or too large: its quadratic form underflows or overflows).
    Raises ConvergenceError, carrying the last plain sweep and its
    residual, if no sweep met ``config.tol`` within ``config.max_iter``
    sweeps (a rejected mixed iterate counts as one).
    """
    cfg = _config("config", config, TylerConfig)
    panel = _check_panel(panel)
    m, n = panel.shape
    if n <= m:
        raise ParameterError(
            f"need more observations than assets, got m={m}, N={n}")
    # from the identity, sweep 1's quadratic forms are the sums of squares
    current, first = ((np.eye(m), np.einsum("ij,ij->j", panel, panel))
                      if start is None else (_check_start(start, m), None))
    work = np.empty((m, n))
    history = _Anderson(m * m)
    plain, mixing, mixed = None, False, False
    residual = np.inf
    for sweeps in range(1, cfg.max_iter + 1):
        try:
            update = _tyler_step(panel, current, work,
                                 first if sweeps == 1 else None)
        except DegenerateDataError:
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

    The panel is checked as in ``tyler``, its observations by the sweep at
    ``scatter``; a scatter that is not m x m or not finite raises
    ParameterError or DegenerateDataError naming why.
    """
    panel = _check_panel(panel)
    values = _square(scatter, "scatter", len(panel))
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


def inv_sqrt(scatter) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix.

    Raises DegenerateDataError on an eigenvalue that is not strictly
    positive, ParameterError on a matrix that is empty or not square and
    DegenerateDataError on a non-finite entry.
    """
    values = _square(scatter, "inv_sqrt input")
    if not values.size:
        raise ParameterError("inv_sqrt input is empty")
    sym = 0.5 * (values + values.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() <= 0.0:
        raise DegenerateDataError(
            "matrix is singular or indefinite; cannot form inverse square root")
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
