"""Synthetic return panels: a low-rank factor part plus heavy-tailed noise.

Each observation is ``r_t = B f_t + sqrt(tau_t) * C^{1/2} x_t`` where ``B``
holds orthogonal factor loadings, ``f_t`` are standard normal factor scores,
``tau_t`` is a positive texture drawn from a unit-mean Gamma law, ``C`` is an
exponentially decaying Toeplitz scatter matrix, and ``x_t`` is uniform on the
unit sphere.  The texture makes the noise heavy tailed (elliptical, not
Gaussian) while leaving its scatter shape equal to ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .panels import ReturnsPanel
from .robust import _sym_sqrt


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
        if self.K < 0:
            raise ParameterError(f"K must be >= 0, got {self.K}")
        if self.K >= self.m:
            raise ParameterError(
                f"K must be smaller than m, got K={self.K}, m={self.m}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.nu > 0.0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        if self.factor_snr < 0.0:
            raise ParameterError(
                f"factor_snr must be >= 0, got {self.factor_snr}")


@dataclass
class SyntheticPanel:
    """A generated panel together with the ground truth that produced it."""

    returns: np.ndarray       # m x N
    true_scatter: np.ndarray  # m x m noise scatter C
    true_loadings: np.ndarray  # m x K
    textures: np.ndarray      # N texture draws tau_t
    factors: np.ndarray       # K x N factor scores f_t
    spec: FactorModelSpec

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
    if not nu > 0.0:
        raise ParameterError(f"nu must be positive, got {nu}")
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


def gen_panel(spec: FactorModelSpec) -> SyntheticPanel:
    """Draw a full synthetic panel for the given spec.

    Deterministic for a fixed seed.  Draw order: loadings, factor scores,
    textures, noise directions.
    """
    rng = np.random.default_rng(spec.seed)
    scatter = gen_toeplitz_scatter(spec.m, spec.rho)
    scatter_half = _sym_sqrt(scatter)

    if spec.K > 0:
        raw = rng.standard_normal((spec.m, spec.K))
        basis, _ = np.linalg.qr(raw)
        loadings = spec.factor_snr * basis
    else:
        loadings = np.zeros((spec.m, 0))
    factors = rng.standard_normal((spec.K, spec.N))
    textures = gen_texture(spec.nu, spec.N, rng)

    directions = np.empty((spec.m, spec.N))
    for t in range(spec.N):
        directions[:, t] = gen_sphere_vector(spec.m, rng)

    noise = np.sqrt(textures)[None, :] * (scatter_half @ directions)
    returns = loadings @ factors + noise
    return SyntheticPanel(returns=returns, true_scatter=scatter,
                          true_loadings=loadings, textures=textures,
                          factors=factors, spec=spec)
