"""Synthetic return panels: a low-rank factor part plus heavy-tailed noise.

Each observation is ``r_t = B f_t + sqrt(tau_t) * C^{1/2} x_t`` where ``B``
holds orthogonal factor loadings, ``f_t`` are standard normal factor scores,
``tau_t`` is a positive texture drawn from a unit-mean Gamma law, ``C`` is an
exponentially decaying Toeplitz scatter matrix, and ``x_t`` is uniform on the
unit sphere.  The texture makes the noise heavy tailed (elliptical, not
Gaussian) while leaving its scatter shape equal to ``C``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .panels import ReturnsPanel
from .robust import _sym_sqrt

# numpy sizes an array in bytes by a signed intp: a float array with more
# entries than this cannot be described, let alone allocated
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class FactorModelSpec:
    """Parameters of the synthetic market.

    m: asset count, N: observation count, K: number of common factors,
    rho: lag-one decay of the noise scatter matrix, nu: Gamma shape of the
    noise textures (smaller is heavier tailed), factor_snr: Euclidean norm
    of each loading column, seed: RNG seed.
    """

    m: int
    N: int
    K: int = 0
    rho: float = 0.0
    nu: float = 1.0
    factor_snr: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.m * max(self.m, self.N) > _MAX_ENTRIES:
            raise ParameterError(
                f"m={self.m}, N={self.N} is too large: the m x m scatter or "
                f"m x N panel would pass numpy's array size limit")
        if self.K < 0:
            raise ParameterError(f"K must be >= 0, got {self.K}")
        if self.K >= self.m:
            raise ParameterError(
                f"K must be smaller than m, got K={self.K}, m={self.m}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 < self.nu < math.inf:
            raise ParameterError(
                f"nu must be positive and finite, got {self.nu}")
        if not 0.0 <= self.factor_snr < math.inf:
            raise ParameterError(
                f"factor_snr must be >= 0 and finite, got {self.factor_snr}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticPanel:
    """A generated panel together with the ground truth that produced it."""

    returns: np.ndarray       # m x N
    true_scatter: np.ndarray  # m x m noise scatter C
    true_loadings: np.ndarray  # m x K
    textures: np.ndarray      # N texture draws tau_t
    factors: np.ndarray       # K x N factor scores f_t

    def to_returns_panel(self) -> ReturnsPanel:
        return ReturnsPanel(self.returns)


def gen_toeplitz_scatter(m: int, rho: float) -> np.ndarray:
    """Scatter matrix with entries rho**|i-j|; symmetric positive definite."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(m)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def gen_texture(nu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean Gamma textures with shape nu (variance 1/nu)."""
    if not 0.0 < nu < math.inf:
        raise ParameterError(f"nu must be positive and finite, got {nu}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return rng.gamma(shape=nu, scale=1.0 / nu, size=n)


def gen_sphere_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    """A point drawn uniformly on the unit sphere in R^m."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    while True:
        g = rng.standard_normal(m)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


@functools.lru_cache(maxsize=4)
def _noise_root(m: int, rho: float) -> np.ndarray:
    """``C^{1/2}`` of ``gen_toeplitz_scatter(m, rho)``, computed once per
    ``(m, rho)`` and returned read-only, since every caller shares it."""
    root = _sym_sqrt(gen_toeplitz_scatter(m, rho))
    root.flags.writeable = False
    return root


def gen_panel(spec: FactorModelSpec) -> SyntheticPanel:
    """Draw a full synthetic panel for the given spec.

    Deterministic for a fixed seed.  Draw order: loadings, factor scores,
    textures, noise directions.  The noise root ``C^{1/2}`` depends only
    on ``(m, rho)``, so it comes from a small cache of read-only arrays
    (one eigendecomposition per ``(m, rho)`` in a process, not one per
    panel); ``true_scatter`` is a fresh array for each panel.
    """
    rng = np.random.default_rng(spec.seed)
    scatter = gen_toeplitz_scatter(spec.m, spec.rho)
    scatter_half = _noise_root(spec.m, spec.rho)

    if spec.K > 0:
        raw = rng.standard_normal((spec.m, spec.K))
        basis, _ = np.linalg.qr(raw)
        loadings = spec.factor_snr * basis
    else:
        loadings = np.zeros((spec.m, 0))
    factors = rng.standard_normal((spec.K, spec.N))
    textures = gen_texture(spec.nu, spec.N, rng)

    # One block of the draws gen_sphere_vector would take one observation at
    # a time.  The row norms come from one batched matmul of 1 x m by m x 1
    # products, which sums each row as the ddot of np.linalg.norm does, so
    # the directions are bit-identical to N calls of it (np.einsum is not).
    # A row that is exactly zero (at most about 2**-52 per draw) is redrawn
    # after the block.
    block = rng.standard_normal((spec.N, spec.m))
    norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None]).ravel())
    for t in np.flatnonzero(norms == 0.0):
        block[t], norms[t] = gen_sphere_vector(spec.m, rng), 1.0
    directions = np.divide(block.T, norms, out=np.empty((spec.m, spec.N)))
    del block  # each m x N intermediate goes once the next one is built
    noise = scatter_half @ directions
    del directions
    noise *= np.sqrt(textures)
    # ``loadings @ factors + noise`` in that order, for the same bits (the
    # product is zeros at K = 0 and turns a -0.0 to +0.0), over ``noise``
    returns = np.add(loadings @ factors, noise, out=noise)
    return SyntheticPanel(returns=returns, true_scatter=scatter,
                          true_loadings=loadings, textures=textures,
                          factors=factors)
