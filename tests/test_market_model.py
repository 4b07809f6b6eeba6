"""Synthetic panel generator tests."""

from __future__ import annotations

import numpy as np
import pytest

import maxvariety.market_model as market_model
from maxvariety import (FactorModelSpec, ParameterError, gen_panel,
                        gen_sphere_vector, gen_texture, gen_toeplitz_scatter)
from maxvariety.robust import _sym_sqrt


def test_toeplitz_scatter_small_cases():
    np.testing.assert_array_equal(gen_toeplitz_scatter(3, 0.0), np.eye(3))
    expected = np.array([[1.0, 0.8], [0.8, 1.0]])
    np.testing.assert_allclose(gen_toeplitz_scatter(2, 0.8), expected)


def test_toeplitz_scatter_structure():
    c = gen_toeplitz_scatter(100, 0.8)
    np.testing.assert_array_equal(c, c.T)
    # constant along every diagonal
    for lag in (1, 7, 42):
        diag = np.diagonal(c, offset=lag)
        assert np.ptp(diag) == 0.0
    # positive definite
    assert np.linalg.eigvalsh(c).min() > 0.0


def test_toeplitz_scatter_rejects_bad_rho():
    with pytest.raises(ParameterError):
        gen_toeplitz_scatter(5, -0.1)
    with pytest.raises(ParameterError):
        gen_toeplitz_scatter(5, 1.0)


def test_texture_moments():
    rng = np.random.default_rng(7)
    tau = gen_texture(0.5, 200_000, rng)
    assert tau.min() > 0.0
    # unit mean, variance 1/nu
    assert abs(tau.mean() - 1.0) < 0.02
    assert abs(tau.var() - 2.0) < 0.1


def test_texture_light_tail_limit():
    rng = np.random.default_rng(8)
    tau = gen_texture(100.0, 200_000, rng)
    assert abs(tau.var() - 0.01) < 0.002


def test_texture_rejects_bad_shape():
    rng = np.random.default_rng(0)
    for nu in (0.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            gen_texture(nu, 10, rng)


def test_sphere_vector_unit_norm():
    rng = np.random.default_rng(3)
    for m in (1, 2, 100):
        x = gen_sphere_vector(m, rng)
        assert x.shape == (m,)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert gen_sphere_vector(1, rng) in (-1.0, 1.0)


def test_sphere_vector_centered():
    rng = np.random.default_rng(4)
    draws = np.array([gen_sphere_vector(3, rng) for _ in range(20_000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.02


def test_gen_panel_shapes_and_determinism():
    spec = FactorModelSpec(m=20, N=50, K=3, rho=0.5, nu=0.5, factor_snr=10.0,
                           seed=11)
    a = gen_panel(spec)
    b = gen_panel(spec)
    assert a.returns.shape == (20, 50)
    assert a.true_scatter.shape == (20, 20)
    assert a.true_loadings.shape == (20, 3)
    assert a.textures.shape == (50,)
    assert a.factors.shape == (3, 50)
    np.testing.assert_array_equal(a.returns, b.returns)
    np.testing.assert_array_equal(a.textures, b.textures)


def test_gen_panel_seed_changes_draws():
    spec = FactorModelSpec(m=10, N=30, K=1, seed=0)
    other = FactorModelSpec(m=10, N=30, K=1, seed=1)
    assert not np.array_equal(gen_panel(spec).returns,
                              gen_panel(other).returns)


def test_gen_panel_loading_geometry():
    spec = FactorModelSpec(m=40, N=10, K=4, rho=0.0, factor_snr=10.0, seed=2)
    loadings = gen_panel(spec).true_loadings
    gram = loadings.T @ loadings
    np.testing.assert_allclose(gram, 100.0 * np.eye(4), atol=1e-10)


def test_gen_panel_model_equation():
    # removing the factor part and unwinding texture and coloring must leave
    # exactly unit-norm direction vectors
    spec = FactorModelSpec(m=15, N=200, K=2, rho=0.6, nu=0.5, factor_snr=5.0,
                           seed=9)
    panel = gen_panel(spec)
    residual = panel.returns - panel.true_loadings @ panel.factors
    vals, vecs = np.linalg.eigh(panel.true_scatter)
    unwind = (vecs / np.sqrt(vals)) @ vecs.T
    directions = (unwind @ residual) / np.sqrt(panel.textures)[None, :]
    norms = np.linalg.norm(directions, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_gen_panel_noise_only():
    spec = FactorModelSpec(m=8, N=25, K=0, rho=0.3, factor_snr=0.0, seed=5)
    panel = gen_panel(spec)
    assert panel.true_loadings.shape == (8, 0)
    assert panel.factors.shape == (0, 25)
    assert np.all(np.isfinite(panel.returns))


def test_gen_panel_covariance_shrinks_toward_scatter():
    # second-moment convergence: without sources the sample covariance
    # approaches a scalar multiple of the true scatter as N grows
    errors = []
    for n in (1_000, 16_000):
        spec = FactorModelSpec(m=10, N=n, K=0, rho=0.5, nu=2.0,
                               factor_snr=0.0, seed=21)
        panel = gen_panel(spec)
        cov = (panel.returns @ panel.returns.T) / n
        cov *= 10.0 / np.trace(cov)
        target = panel.true_scatter * 10.0 / np.trace(panel.true_scatter)
        errors.append(np.linalg.norm(cov - target, 2))
    assert errors[1] < errors[0]


def _loop_gen_panel_returns(spec):
    # reference: the generator drawing one sphere vector per observation
    rng = np.random.default_rng(spec.seed)
    if spec.K > 0:
        basis, _ = np.linalg.qr(rng.standard_normal((spec.m, spec.K)))
        loadings = spec.factor_snr * basis
    else:
        loadings = np.zeros((spec.m, 0))
    factors = rng.standard_normal((spec.K, spec.N))
    textures = gen_texture(spec.nu, spec.N, rng)
    directions = np.empty((spec.m, spec.N))
    for t in range(spec.N):
        directions[:, t] = gen_sphere_vector(spec.m, rng)
    half = _sym_sqrt(gen_toeplitz_scatter(spec.m, spec.rho))
    noise = np.sqrt(textures)[None, :] * (half @ directions)
    return loadings @ factors + noise


@pytest.mark.parametrize("m, n, k, seed", [
    (1, 30, 0, 0), (2, 7, 1, 4), (15, 200, 3, 9), (40, 295, 0, 10001),
    (100, 1000, 0, 10000), (100, 1000, 3, 10002)])
def test_gen_panel_is_bit_identical_to_per_observation_draws(m, n, k, seed):
    spec = FactorModelSpec(m=m, N=n, K=k, rho=0.8, nu=0.5, factor_snr=10.0,
                           seed=seed)
    np.testing.assert_array_equal(gen_panel(spec).returns,
                                  _loop_gen_panel_returns(spec))


def test_gen_panel_stays_bit_identical_as_the_noise_root_cache_turns_over():
    # five (m, rho) keys against a cache of four, visited so that hits,
    # misses and evictions alternate
    market_model._noise_root.cache_clear()
    keys = [(15, 0.8), (7, 0.3), (15, 0.8), (40, 0.5), (7, 0.3), (3, 0.0),
            (22, 0.9), (15, 0.8), (40, 0.5), (7, 0.3), (15, 0.8)]
    for seed, (m, rho) in enumerate(keys):
        spec = FactorModelSpec(m=m, N=60, K=seed % 3,
                               rho=rho, nu=0.5, seed=seed)
        np.testing.assert_array_equal(gen_panel(spec).returns,
                                      _loop_gen_panel_returns(spec))
    info = market_model._noise_root.cache_info()
    assert info.hits > 0 and info.misses > 5


def test_gen_panel_decomposes_the_noise_scatter_once_per_m_rho(monkeypatch):
    market_model._noise_root.cache_clear()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    panels = [gen_panel(FactorModelSpec(m=20, N=50, K=0, rho=0.5, seed=seed))
              for seed in range(8)]
    assert calls == [(20, 20)]
    root = market_model._noise_root(20, 0.5)
    with pytest.raises(ValueError):
        root[0, 0] = 1.0
    # each panel still owns its true scatter
    panels[0].true_scatter[0, 1] = 7.0
    assert panels[1].true_scatter[0, 1] == 0.5


def test_gen_panel_redraws_an_all_zero_direction(monkeypatch):
    # a block row that is exactly zero has no direction; it is replaced by
    # a fresh unit vector drawn after the block
    default_rng = np.random.default_rng

    class ZeroedBlockRow:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size):
            draws = self.rng.standard_normal(size)
            if np.ndim(draws) == 2 and np.shape(draws)[0] == 25:
                draws[3] = 0.0
            return draws

    monkeypatch.setattr(market_model.np.random, "default_rng",
                        ZeroedBlockRow)
    spec = FactorModelSpec(m=6, N=25, K=0, rho=0.4, nu=0.5, seed=3)
    panel = gen_panel(spec)
    vals, vecs = np.linalg.eigh(panel.true_scatter)
    unwind = (vecs / np.sqrt(vals)) @ vecs.T
    directions = (unwind @ panel.returns) / np.sqrt(panel.textures)[None, :]
    np.testing.assert_allclose(np.linalg.norm(directions, axis=0), 1.0,
                               atol=1e-10)


def test_spec_validation():
    with pytest.raises(ParameterError):
        FactorModelSpec(m=0, N=10)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=0)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=10, K=-1)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=10, K=10)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=10, nu=-0.5)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=10, factor_snr=-1.0)
    with pytest.raises(ParameterError):
        FactorModelSpec(m=10, N=10, seed=-1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            FactorModelSpec(m=10, N=10, nu=bad)
        with pytest.raises(ParameterError):
            FactorModelSpec(m=10, N=10, factor_snr=bad)
