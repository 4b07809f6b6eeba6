"""Synthetic return panels: a low-rank factor part plus heavy-tailed noise.

Each observation is ``r_t = B f_t + sqrt(tau_t) * L x_t`` where ``B`` holds
orthogonal factor loadings, ``f_t`` are standard normal factor scores,
``tau_t`` is a positive texture drawn from a unit-mean Gamma law, ``L`` is
the Cholesky factor of an exponentially decaying Toeplitz scatter matrix
``C = L L^T``, and ``x_t`` is uniform on the unit sphere.  The texture makes
the noise heavy tailed (elliptical, not Gaussian) while leaving its scatter
shape equal to ``C``.  Any square root of ``C`` gives the same law:
``L = C^{1/2} Q`` for an orthogonal ``Q``, and ``Q x_t`` is uniform on the
sphere when ``x_t`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .panels import ReturnsPanel
from .robust import _count, _real

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
        _count("m", self.m, 1)
        _count("N", self.N, 1)
        if self.m > _MAX_ENTRIES // max(self.m, self.N):
            raise ParameterError(
                f"m={self.m}, N={self.N} is too large: the m x m scatter or "
                f"m x N panel would pass numpy's array size limit")
        _count("K", self.K, 0)
        if self.K >= self.m:
            raise ParameterError(
                f"K must be smaller than m, got K={self.K}, m={self.m}")
        _real("rho", self.rho, 0.0, 1.0, "lie in [0, 1)", closed=True)
        _real("nu", self.nu)
        _real("factor_snr", self.factor_snr, rule="be >= 0 and finite",
              closed=True)
        _count("seed", self.seed, 0)


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
    _count("m", m, 1)
    rho = _real("rho", rho, 0.0, 1.0, "lie in [0, 1)", closed=True)
    idx = np.arange(m)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def gen_texture(nu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean Gamma textures with shape nu (variance 1/nu); ParameterError
    naming ``nu`` if a tiny nu underflows a draw to zero (or NaN)."""
    nu = _real("nu", nu)
    _count("n", n, 1)
    textures = rng.gamma(shape=nu, scale=1.0 / nu, size=n)
    if not np.all(np.isfinite(textures) & (textures > 0.0)):
        raise ParameterError(f"nu={nu!r} draws textures that are not finite "
                             f"and positive")
    return textures


def gen_sphere_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    """A point drawn uniformly on the unit sphere in R^m."""
    _count("m", m, 1)
    while True:
        g = rng.standard_normal(m)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


def gen_panel(spec: FactorModelSpec) -> SyntheticPanel:
    """Draw a full synthetic panel for the given spec.

    Deterministic for a fixed seed at any BLAS thread count: no BLAS call
    sums over the observations.  Draw order: loadings, factor scores,
    textures, noise directions ``d``.  The Cholesky factor ``L`` of ``C``
    colours them as the AR(1) recursion down the asset axis, ``x_0 = d_0``,
    ``x_i = rho x_{i-1} + sqrt(1 - rho**2) d_i``.  Raises ParameterError
    naming ``nu`` for a zero or NaN texture, and naming ``factor_snr`` when
    a return is not finite.
    """
    rng = np.random.default_rng(spec.seed)
    # at K = 0 the m x 0 draw takes nothing from the stream
    basis, _ = np.linalg.qr(rng.standard_normal((spec.m, spec.K)))
    loadings = float(spec.factor_snr) * basis
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
    noise = np.divide(block.T, norms, out=np.empty((spec.m, spec.N)))
    del block  # each m x N intermediate goes once the next one is built
    rho = float(spec.rho)  # the spec keeps a rho as given, say a Fraction
    if rho != 0.0:
        noise[1:] *= math.sqrt(1.0 - rho * rho)
        for i in range(1, spec.m):
            noise[i] += rho * noise[i - 1]
    noise *= np.sqrt(textures)
    # ``loadings @ factors + noise`` in that order, for the same bits (the
    # product is zeros at K = 0 and turns a -0.0 to +0.0), over ``noise``
    with np.errstate(over="ignore"):
        returns = np.add(loadings @ factors, noise, out=noise)
    if not np.all(np.isfinite(returns)):
        raise ParameterError(f"factor_snr={spec.factor_snr!r} is too large: "
                             f"the returns overflow")
    return SyntheticPanel(returns=returns,
                          true_scatter=gen_toeplitz_scatter(spec.m, spec.rho),
                          true_loadings=loadings, textures=textures,
                          factors=factors)
