"""Model-order selection and spectrum cleaning for covariance estimates.

The pipeline: estimate a robust scatter, rectify it toward the Toeplitz
structure of the noise, whiten the panel with the rectified estimate, and
re-estimate.  The estimator is affine equivariant, so the re-estimate starts
at the whitened first estimate, its fixed point, and one sweep certifies it.
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

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateDataError, DegenerateSpectrumError,
                     InsufficientSamplesError, ParameterError)
from .robust import (ScatterMatrix, TylerConfig, demean_rows, inv_sqrt,
                     toeplitzify, tyler, _as_matrix, _check_panel, _sym_sqrt)

# False-alarm level of the order test and the matching upper quantile of
# the Tracy-Widom law TW1, i.e. P(TW1 > TW1_QUANTILE) = ORDER_ALPHA.
ORDER_ALPHA = 0.01
TW1_QUANTILE = 2.0234


@dataclass
class EigenSpectrum:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_spectrum(matrix) -> EigenSpectrum:
    """Full symmetric eigendecomposition, sorted largest first."""
    values = _as_matrix(matrix)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError("eigen_spectrum needs a square matrix")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (values + values.T))
    order = slice(None, None, -1)
    return EigenSpectrum(eigvals[order].copy(), eigvecs[:, order].copy())


def mp_upper_bound(ratio_c: float) -> float:
    """Upper edge of the noise eigenvalue bulk at aspect ratio c = m/N."""
    if not ratio_c > 0.0:
        raise ParameterError(f"aspect ratio must be positive, got {ratio_c}")
    return (1.0 + math.sqrt(ratio_c)) ** 2


def order_threshold(m: int, n: int) -> float:
    """Tracy-Widom threshold for the largest of m noise eigenvalues from N samples.

    Johnstone's (2001) real-case centring ``mu`` and scaling ``sigma`` of the
    largest sample-covariance eigenvalue of white noise, normalised by N,
    plus the TW1 quantile at level ``ORDER_ALPHA`` = 0.01: a noise-only panel
    puts its top eigenvalue above the result about 1% of the time.  Always
    above the bulk edge ``mp_upper_bound(m / n)``.
    """
    if m < 1 or n < 2:
        raise ParameterError(f"need m >= 1 and N >= 2, got m={m}, N={n}")
    a = math.sqrt(n - 1.0)
    b = math.sqrt(m)
    mu = (a + b) ** 2 / n
    sigma = (a + b) * (1.0 / a + 1.0 / b) ** (1.0 / 3.0) / n
    return mu + TW1_QUANTILE * sigma


def select_order(spectrum, lambda_bar: float) -> int:
    """Number of eigenvalues strictly above the threshold ``lambda_bar``.

    The pipeline passes the Tracy-Widom threshold ``order_threshold(m, N)``
    (alpha = 0.01, Johnstone 2001); passing the bulk edge
    ``mp_upper_bound(m / N)`` gives the paper-literal count instead.
    """
    if isinstance(spectrum, EigenSpectrum):
        eigvals = spectrum.eigenvalues
    else:
        eigvals = np.asarray(spectrum, dtype=float)
    if eigvals.ndim != 1:
        raise ParameterError("select_order expects a vector of eigenvalues")
    return int(np.count_nonzero(eigvals > lambda_bar))


def clip_spectrum(eigenvalues, k: int) -> np.ndarray:
    """Replace all but the top ``k`` eigenvalues by a common noise level.

    The level spreads the remaining trace uniformly, so the total trace is
    unchanged.
    """
    eigvals = np.asarray(eigenvalues, dtype=float)
    if eigvals.ndim != 1:
        raise ParameterError("clip_spectrum expects a vector of eigenvalues")
    if np.any(np.diff(eigvals) > 0.0):
        raise ParameterError("eigenvalues must be sorted in descending order")
    m = eigvals.size
    if not 0 <= k <= m:
        raise ParameterError(f"k must lie in [0, {m}], got {k}")
    if k == m:
        return eigvals.copy()
    level = (eigvals.sum() - eigvals[:k].sum()) / (m - k)
    if level <= 0.0:
        raise DegenerateSpectrumError(
            f"clipping produced a non-positive noise level {level!r}")
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
    eigen_floor: float = 1e-10

    def __post_init__(self):
        if self.eigen_floor < 0.0:
            raise ParameterError(
                f"eigen_floor must be >= 0, got {self.eigen_floor}")


@dataclass
class CleaningReport:
    """Everything the cleaning pipeline decided and produced.

    ``robust_scatter`` is the first Tyler pass on the (demeaned) panel.  It
    is kept for callers that need the raw robust estimate and stays out of
    ``to_dict``.
    """

    k_hat: int
    lambda_bar: float
    threshold: float
    ratio_c: float
    spectrum: EigenSpectrum
    clipped_spectrum: np.ndarray
    denoised: np.ndarray
    robust_scatter: ScatterMatrix
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "k_hat": self.k_hat,
            "lambda_bar": self.lambda_bar,
            "threshold": self.threshold,
            "ratio_c": self.ratio_c,
            "eigenvalues": [float(v) for v in self.spectrum.eigenvalues],
            "clipped_eigenvalues": [float(v) for v in self.clipped_spectrum],
            "warnings": list(self.warnings),
        }


def clean_covariance(panel, config: CleanConfig | None = None) -> CleaningReport:
    """Run the full rectify-whiten-clip pipeline on a return panel.

    Returns the denoised covariance (diagonal matching the panel's sample
    variances), the selected model order, the bulk edge ``lambda_bar``, the
    Tracy-Widom ``threshold`` the order was selected at (alpha = 0.01,
    Johnstone 2001), and both the raw and clipped whitened spectra.  The
    paper-literal order at the bulk edge is
    ``select_order(report.spectrum, report.lambda_bar)``.  The second Tyler
    pass starts at ``W C1 W`` (``W`` the whitener, ``C1`` the first pass),
    where affine equivariance puts its fixed point; its one sweep and its
    tolerance test certify that start on the whitened data.  Estimation errors
    propagate; eigenvalue flooring is collected into the report's warnings.
    """
    cfg = config or CleanConfig()
    panel = _check_panel(panel)
    m, n = panel.shape
    if n <= m:
        raise InsufficientSamplesError(
            f"need more observations than assets, got m={m}, N={n}")
    work = demean_rows(panel) if cfg.demean else panel

    sample_var = np.var(panel, axis=1, ddof=1)
    flat = np.flatnonzero(sample_var == 0.0)
    if flat.size:
        raise DegenerateDataError(
            f"asset {flat[0]} has zero sample variance over the window")

    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        robust_scatter = tyler(work, cfg.tyler)
        noise_scatter = toeplitzify(robust_scatter.values)
        noise_scatter *= m / np.trace(noise_scatter)
        whitener = inv_sqrt(noise_scatter, cfg.eigen_floor)
        whitened = whitener @ work
        # Affine equivariance puts pass 2's fixed point at the whitened pass
        # 1 estimate; one sweep from there certifies it.
        start = whitener @ robust_scatter.values @ whitener
        whitened_scatter = tyler(whitened, cfg.tyler,
                                 start=0.5 * (start + start.T))
    notes.extend(str(w.message) for w in caught)

    spectrum = eigen_spectrum(whitened_scatter.values)
    ratio_c = m / n
    lambda_bar = mp_upper_bound(ratio_c)
    threshold = order_threshold(m, n)
    k_hat = select_order(spectrum.eigenvalues, threshold)
    clipped = clip_spectrum(spectrum.eigenvalues, k_hat)

    cleaned_white = (spectrum.eigenvectors * clipped) @ spectrum.eigenvectors.T
    color = _sym_sqrt(noise_scatter)
    scatter_shape = color @ cleaned_white @ color
    scale = np.sqrt(sample_var / np.diag(scatter_shape))
    denoised = scatter_shape * np.outer(scale, scale)
    denoised = 0.5 * (denoised + denoised.T)

    return CleaningReport(k_hat=k_hat, lambda_bar=lambda_bar,
                          threshold=threshold, ratio_c=ratio_c,
                          spectrum=spectrum, clipped_spectrum=clipped,
                          denoised=denoised, robust_scatter=robust_scatter,
                          warnings=notes)


def save_eigenvalue_histogram(eigenvalues, path) -> None:
    """Write a 60-bin histogram of the log eigenvalues as CSV for plotting."""
    eigvals = np.asarray(eigenvalues, dtype=float).ravel()
    if eigvals.size == 0:
        raise ParameterError("no eigenvalues to histogram")
    if np.any(eigvals <= 0.0):
        raise ParameterError(
            "log-scale histogram needs strictly positive eigenvalues")
    counts, edges = np.histogram(np.log(eigvals), bins=60)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "count"])
        for center, count in zip(centers, counts):
            writer.writerow([repr(float(center)), int(count)])
