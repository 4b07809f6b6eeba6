"""Long-only portfolios that maximize the variety ratio.

The variety ratio of weights ``w`` under covariance ``Sigma`` is
``(w . s) / sqrt(w' Sigma w)`` where ``s`` holds the per-asset volatilities.
It equals 1 for single-asset portfolios and grows as the portfolio spreads
across imperfectly correlated assets, so maximizing it yields the most
diversified long-only mix.

Maximizing the ratio is the same problem as long-only minimum variance on
the correlation matrix (Choueifaty & Coignard 2008), a convex QP with an
exact finite solution.  One active-set solver finds it, and
``optimize_variety`` certifies the result: the first-order residual of
projected gradient ascent on the log ratio, in risk units, must stay within
``kkt_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, ParameterError
from .robust import _square


@dataclass
class CovarianceInput:
    """A non-empty symmetric covariance matrix with finite entries and a
    positive diagonal, and the per-asset volatilities
    ``vols = sqrt(diag(sigma))`` that the variety ratio divides by."""

    sigma: np.ndarray
    vols: np.ndarray = field(init=False)

    def __post_init__(self):
        sigma = self.sigma = _square(self.sigma, "covariance")
        if not sigma.size:
            raise ParameterError("covariance is empty: no assets")
        scale = max(np.abs(sigma).max(), 1.0)
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            raise ParameterError("covariance must be symmetric")
        diag = np.diag(sigma)
        bad = np.flatnonzero(diag <= 0.0)
        if bad.size:
            raise DegenerateDataError(
                f"asset {bad[0]} has non-positive variance")
        self.vols = np.sqrt(diag)


@dataclass
class WeightVector:
    """Long-only weights on the unit simplex.

    ``steps`` counts the solver steps that produced the weights (0 when they
    were not solved for).
    """

    weights: np.ndarray
    steps: int = field(default=0, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise ParameterError("weights must be a vector")

    def validate(self, tol: float = 1e-8) -> None:
        if self.weights.min() < -tol or self.weights.max() > 1.0 + tol:
            raise ParameterError("weights must lie in [0, 1]")
        if abs(self.weights.sum() - 1.0) > tol:
            raise ParameterError(
                f"weights sum to {self.weights.sum()!r}, expected 1")


def _as_cov(cov) -> CovarianceInput:
    if isinstance(cov, CovarianceInput):
        return cov
    return CovarianceInput(cov)


def _as_weights(weights) -> np.ndarray:
    if not isinstance(weights, WeightVector):
        weights = WeightVector(weights)
    return weights.weights


def variety_ratio(weights, cov) -> float:
    """Weighted volatility over portfolio volatility; >= 1 on the simplex."""
    cov = _as_cov(cov)
    w = _as_weights(weights)
    if w.shape != cov.vols.shape:
        raise ParameterError(
            f"{w.size} weights for {cov.vols.size} assets")
    variance = float(w @ cov.sigma @ w)
    if variance <= 0.0:
        raise DegenerateDataError(
            f"portfolio variance {variance!r} is not positive")
    return float(w @ cov.vols) / math.sqrt(variance)


def _project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    feasible = np.flatnonzero(u - cumulative / ranks > 0.0)
    # index 0 always qualifies in exact arithmetic, but rounding drops it
    # when the entries dwarf 1, and a NaN entry matches nothing; the
    # projection from pivot 0 is then far from ``v``, and the certificate
    # fails instead of raising IndexError
    pivot = feasible[-1] if feasible.size else 0
    theta = cumulative[pivot] / (pivot + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Acceptance threshold of the optimizer's first-order certificate."""

    kkt_tol: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.kkt_tol < math.inf:
            raise ParameterError(
                f"kkt_tol must be positive and finite, got {self.kkt_tol}")


@dataclass
class OptimizationResult:
    """Outcome of a variety-ratio maximization."""

    weights: WeightVector
    variety_ratio: float
    iterations: int
    kkt_residual: float


def _kkt_residual(w: np.ndarray, cov: CovarianceInput) -> float:
    """Fixed-point defect of projected gradient ascent on the log ratio,
    measured in risk units.

    The defect is taken at ``z = w s / (w . s)`` against the correlation
    matrix ``R`` with unit volatilities, where the log ratio's gradient is
    ``1 / (1' z) - R z / (z' R z)``.  Rescaling an asset changes ``Sigma``,
    ``s`` and ``w`` but neither ``z`` nor ``R``, so the residual moves
    only by rounding.  ``R z`` is taken as ``(Sigma w) / (s (w . s))``, so
    ``R`` is not formed again.
    """
    exposure = float(w @ cov.vols)
    z = w * cov.vols / exposure
    corr_z = (cov.sigma @ w) / (cov.vols * exposure)
    grad = 1.0 / z.sum() - corr_z / float(z @ corr_z)
    return float(np.abs(_project(z + grad) - z).max())


def _face_minimizer(kkt: np.ndarray,
                    probe: np.ndarray) -> tuple[np.ndarray, bool]:
    """A solution of ``kkt x = e`` (``e`` the last unit vector) by the
    accept rule stated in ``_active_set``, and whether the LU result was
    taken."""
    n = kkt.shape[0]
    rhs = np.zeros((n, 2))
    rhs[-1, 0] = 1.0
    rhs[:, 1] = probe[:n]
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        pass
    else:
        x, y = sol.T
        if (np.isfinite(sol).all()
                and np.abs(kkt @ x - rhs[:, 0]).max()
                <= 1e-10 * max(1.0, np.abs(x).max())
                and n * np.finfo(float).eps * np.abs(y).max() <= 1e-6):
            return x, True
    return np.linalg.lstsq(kkt, rhs[:, 0], rcond=None)[0], False


def _active_set(corr: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact minimizer of ``z' R z`` on the simplex, and the steps taken.

    A primal active-set walk.  Each step minimizes over the current face of
    ``f`` assets through its KKT system ``K [z_F; mu] = e``, with
    ``K = [[R_FF, 1], [1', 0]]`` and ``e`` the last unit vector.  If that
    target leaves the simplex, the iterate moves toward it until the first
    coordinate reaches zero, and that coordinate leaves the face.
    Otherwise the iterate takes the target, and outside assets whose
    gradient undercuts the multiplier by more than 1e-12 enter.  A face
    minimizer with no such asset is the global minimum.

    Step 1 solves the full face, whose target is the unconstrained
    minimizer.  When LU solved that face (so it is well away from
    singular) and its target is negative in some coordinates, the walk
    crash-starts: the iterate becomes ``max(target, 0)`` rescaled onto the
    simplex, and the face its positive coordinates.  On a walk that
    crashed, every undercutting asset enters at once, except from a face
    that least squares solved, where only the lowest index enters.  A full
    face that needs least squares keeps the walk from all assets, one
    asset per step, with the lowest undercutting index entering (Bland's
    rule, against cycling on degenerate faces).  Such a face is singular or
    nearly so, and the minimum of ``z' R z`` can be so small that the fixed
    1e-12 entry margin is a few percent of the multiplier: another path
    could then stop on another face within that margin.  A crashed walk
    enters in blocks because the face of the positive coordinates usually
    lacks several assets of the optimum.

    A crashed walk still ends.  Its full face is nonsingular, which makes
    every face strictly convex.  Each entering asset undercuts the multiplier by more
    than 1e-12, and on a strictly convex face a single entrant always gets
    positive weight, so the zero-length steps that drop entrants whose
    target is negative cannot empty the entering set; the next face
    minimizer is then strictly lower than the last, and no face repeats.

    The face system is solved by one LU factorisation, which also solves
    ``K y = r`` for the fixed vector ``r_i = sin(i + 1)``.  Its entries are
    irregular, so ``r`` is nearly orthogonal to the direction of
    ``sigma_min`` only by accident, and ``max |y|`` estimates
    ``1 / sigma_min(K)``, as a random ``r`` does (Dixon 1983).  The LU
    result ``x`` is taken when the solve raises no ``LinAlgError``, ``x``
    and ``y`` are finite, ``max |K x - e| <= 1e-10 max(1, max |x|)``, and
    ``(f + 1) eps max |y| <= 1e-6``.  As ``sigma_max(K) <= f + 1`` for
    correlations, the last test keeps LU, with a wide margin, only where
    least squares with its ``rcond = (f + 1) eps`` cutoff would cut no
    singular value, so both find the one face minimizer.  Any other face,
    singular or nearly so (fewer observations than assets, duplicated
    assets, zero-variance portfolios), is solved by least squares, whose
    minimum-norm solution is still a face minimizer.  On such a face ``e``
    is still in the range of ``K``, so ``x`` stays bounded but is arbitrary
    along the null space; only ``y`` reveals it.  Least squares that fails
    to converge raises ConvergenceError with the current iterate.
    """
    m = corr.shape[0]
    probe = np.sin(np.arange(1.0, m + 2.0))
    z = np.full(m, 1.0 / m)
    free = np.ones(m, dtype=bool)
    crashed = False
    cap = 8 * m + 16
    for step in range(1, cap + 1):
        idx = np.flatnonzero(free)
        f = idx.size
        kkt = np.ones((f + 1, f + 1))
        kkt[:f, :f] = corr[np.ix_(idx, idx)]
        kkt[f, f] = 0.0
        try:
            target, lu = _face_minimizer(kkt, probe)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"least squares failed on a face of {f} assets: {exc}",
                iterate=z) from exc
        target = target[:f]
        blocked = np.flatnonzero(target < 0.0)
        if step == 1 and lu and 0 < blocked.size < f:
            z = np.maximum(target, 0.0)
            z /= z.sum()
            free = z > 0.0
            crashed = True
            continue
        if blocked.size:
            current = z[idx]
            shares = current[blocked] / (current[blocked] - target[blocked])
            first = int(np.argmin(shares))
            z[idx] = np.maximum(
                current + shares[first] * (target - current), 0.0)
            z[idx[blocked[first]]] = 0.0
            free[idx[blocked[first]]] = False
            continue
        z[idx] = target
        gradient = corr @ z
        multiplier = float(z @ gradient)
        entering = np.flatnonzero(~free & (gradient < multiplier - 1e-12))
        if entering.size == 0:
            return z, step
        free[entering if crashed and lu else entering[0]] = True
    raise ConvergenceError(
        f"active-set solve did not settle within {cap} steps",
        iterate=z)


def min_variance_variety_weights(cov) -> WeightVector:
    """Maximum-variety weights via long-only minimum variance on correlations.

    The variety ratio is scale invariant in the weights, so maximizing it on
    the simplex is equivalent to minimizing ``z' R z`` over the simplex in
    risk-unit coordinates ``z_i = w_i s_i / (w . s)`` where ``R`` is the
    correlation matrix (Choueifaty & Coignard 2008), then mapping back
    through ``w_i = z_i / s_i`` and renormalizing.  The inner convex QP is
    solved exactly by an active-set walk, each face by one LU solve and
    by least squares only where that face is singular; ``steps`` on the
    result counts its face solves.  When the correlation matrix is well
    away from singular the walk crash-starts on the positive coordinates
    of the unconstrained minimizer and enters assets in blocks; otherwise
    it starts from all assets and moves one asset per step (see
    ``_active_set``); which walk runs changes the step count, not the face
    it ends on.  Raises DegenerateDataError when the minimum
    variance is zero to rounding: the variety ratio is then unbounded on
    the simplex.
    """
    cov = _as_cov(cov)
    corr = cov.sigma / np.outer(cov.vols, cov.vols)
    z, steps = _active_set(corr)
    variance = float(z @ corr @ z)
    if variance <= np.finfo(float).eps * np.abs(corr).max():
        raise DegenerateDataError(
            f"a long-only portfolio has zero variance (z'Rz = "
            f"{variance:.1e} on the correlations), so the variety ratio "
            f"is unbounded")
    w = z / cov.vols
    return WeightVector(w / w.sum(), steps=steps)


def optimize_variety(cov, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize the variety ratio over the simplex; full diagnostics.

    ``kkt_residual`` is the first-order residual of the solve in risk
    units (see ``_kkt_residual``), so rescaling assets leaves it in place.
    Raises ConvergenceError when it exceeds ``kkt_tol``.
    """
    cov = _as_cov(cov)
    cfg = config or OptimizerConfig()
    weights = min_variance_variety_weights(cov)
    ratio = variety_ratio(weights, cov)
    residual = _kkt_residual(weights.weights, cov)
    if not residual <= cfg.kkt_tol:
        raise ConvergenceError(
            f"optimizer stopped with first-order residual {residual:.3e} "
            f"above tolerance {cfg.kkt_tol:.1e}",
            residual=residual, iterate=weights.weights)
    weights.validate()
    return OptimizationResult(weights=weights, variety_ratio=ratio,
                              iterations=weights.steps,
                              kkt_residual=residual)


def maximize_variety(cov, config: OptimizerConfig | None = None) -> WeightVector:
    """Long-only weights with the highest variety ratio."""
    return optimize_variety(cov, config).weights
