"""Scatter estimation tests: sample covariance, fixed-point estimator,
Toeplitz rectification, inverse square root."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import maxvariety.robust as robust

from maxvariety import (ConvergenceError, DegenerateDataError,
                        EigenvalueFloorWarning, FactorModelSpec,
                        InsufficientSamplesError, ParameterError,
                        ScatterMatrix, SingularMatrixError, TylerConfig,
                        clean_covariance, fixed_point_residual, gen_panel,
                        gen_toeplitz_scatter, inv_sqrt, mp_upper_bound, scm,
                        toeplitzify, tyler)
from maxvariety.robust import _tyler_step


def _noise_panel(m, n, rho, nu, seed):
    spec = FactorModelSpec(m=m, N=n, K=0, rho=rho, nu=nu, factor_snr=0.0,
                           seed=seed)
    return gen_panel(spec)


# ---------------------------------------------------------------- scm


def test_scm_single_column_outer_product():
    got = scm(np.array([[1.0], [2.0]]), demean=False)
    np.testing.assert_array_equal(got.values, [[1.0, 2.0], [2.0, 4.0]])
    assert got.normalization == "covariance_scale"


def test_scm_zero_panel_is_singular():
    with pytest.raises(SingularMatrixError):
        scm(np.zeros((3, 10)))


def test_scm_empty_panel_rejected():
    with pytest.raises(ParameterError):
        scm(np.zeros((3, 0)))


def test_scm_gaussian_consistency():
    # colored Gaussian draws; spectral error farther than sqrt(m/N) would flag
    # a broken estimator
    m, n = 20, 2000
    c = gen_toeplitz_scatter(m, 0.5)
    vals, vecs = np.linalg.eigh(c)
    half = (vecs * np.sqrt(vals)) @ vecs.T
    rng = np.random.default_rng(100)
    panel = half @ rng.standard_normal((m, n))
    err = np.linalg.norm(scm(panel).values - c, 2) / np.linalg.norm(c, 2)
    assert err < 0.15


def test_scm_demean_flag():
    rng = np.random.default_rng(5)
    panel = rng.standard_normal((4, 60)) + 3.0
    raw = scm(panel, demean=False).values
    centered = scm(panel, demean=True).values
    assert raw[0, 0] > 5.0          # dominated by the squared mean
    assert centered[0, 0] < 3.0     # mean removed


# ---------------------------------------------------------------- tyler


def test_tyler_m1_is_unit():
    got = tyler(np.array([[0.5, -2.0, 3.0]]))
    np.testing.assert_allclose(got.values, [[1.0]])
    assert got.normalization == "trace_m"


def test_tyler_trace_and_symmetry():
    rng = np.random.default_rng(2)
    panel = rng.standard_normal((7, 120))
    got = tyler(panel).values
    assert abs(np.trace(got) - 7.0) < 1e-12
    np.testing.assert_allclose(got, got.T, atol=1e-14)
    assert np.linalg.eigvalsh(got).min() > 0.0


def test_tyler_per_sample_scale_invariance():
    rng = np.random.default_rng(3)
    panel = rng.standard_normal((6, 90))
    scales = rng.uniform(0.01, 100.0, size=90)
    base = tyler(panel).values
    scaled = tyler(panel * scales[None, :]).values
    assert np.abs(base - scaled).max() < 1e-10


def test_tyler_fixed_point_residual_small():
    rng = np.random.default_rng(4)
    panel = rng.standard_normal((12, 240))
    fit = tyler(panel)
    assert fixed_point_residual(panel, fit) < 1e-6


def test_tyler_recovers_toeplitz_scatter():
    # heavy-tailed textures must not disturb the shape estimate
    panel = _noise_panel(100, 1000, rho=0.8, nu=0.5, seed=0)
    c = panel.true_scatter  # trace is already m for this construction
    fit = tyler(panel.returns).values
    err = np.linalg.norm(fit - c, 2) / np.linalg.norm(c, 2)
    assert err < 0.25


def test_tyler_needs_more_samples_than_assets():
    rng = np.random.default_rng(6)
    with pytest.raises(InsufficientSamplesError):
        tyler(rng.standard_normal((10, 10)))


def test_tyler_rejects_zero_column():
    rng = np.random.default_rng(7)
    panel = rng.standard_normal((4, 30))
    panel[:, 11] = 0.0
    with pytest.raises(DegenerateDataError, match="11"):
        tyler(panel)


def _lu_tyler_step(panel, current):
    # reference sweep: the quadratic forms from an LU solve with N
    # right-hand sides
    m, n = panel.shape
    quad = np.einsum("ij,ij->j", panel, np.linalg.solve(current, panel))
    update = (m / n) * ((panel / quad) @ panel.T)
    return 0.5 * (update + update.T)


@pytest.mark.parametrize("k", [0, 3])
def test_tyler_step_matches_lu_reference(k):
    returns = gen_panel(FactorModelSpec(m=20, N=200, K=k, rho=0.8, nu=0.5,
                                        factor_snr=8.0, seed=k)).returns
    fit = tyler(returns).values
    for current in (np.eye(20), fit):
        want = _lu_tyler_step(returns, current)
        got = _tyler_step(returns, current)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_tyler_step_buffers_change_no_bit():
    returns = _noise_panel(20, 200, rho=0.8, nu=0.5, seed=3).returns
    white, scaled = np.empty((20, 200)), np.empty((20, 200))
    current = gen_toeplitz_scatter(20, 0.5)
    want = _tyler_step(returns, current)
    for _ in range(2):
        got = _tyler_step(returns, current, white, scaled)
        np.testing.assert_array_equal(got, want)


def _plain_tyler(panel, cfg=TylerConfig()):
    # reference loop: plain fixed-point sweeps from the identity, no mixing
    m = panel.shape[0]
    current = np.eye(m)
    for sweeps in range(1, cfg.max_iter + 1):
        update = _lu_tyler_step(panel, current)
        update *= m / np.trace(update)
        residual = (np.linalg.norm(update - current)
                    / np.linalg.norm(current))
        current = update
        if residual < cfg.tol:
            return current, sweeps
    raise AssertionError("reference loop did not converge")


def _counting_sweeps(monkeypatch, reject=()):
    # route every sweep through a recorder; the calls numbered in
    # ``reject`` (from 1) fail as a sweep at an indefinite iterate does
    calls = []
    step = robust._tyler_step

    def recorded(*args):
        calls.append(args[1].copy())
        if len(calls) in reject:
            raise SingularMatrixError("scatter iterate lost positive "
                                      "definiteness")
        return step(*args)

    monkeypatch.setattr(robust, "_tyler_step", recorded)
    return calls


@pytest.mark.parametrize("m", [20, 100])
@pytest.mark.parametrize("k", [0, 3])
def test_tyler_agrees_with_plain_loop_in_fewer_sweeps(monkeypatch, m, k):
    returns = gen_panel(FactorModelSpec(m=m, N=10 * m, K=k, rho=0.8, nu=0.5,
                                        factor_snr=10.0, seed=k)).returns
    want, plain_sweeps = _plain_tyler(returns)
    calls = _counting_sweeps(monkeypatch)
    got = tyler(returns).values
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)
    assert len(calls) < plain_sweeps
    np.testing.assert_array_equal(got, got.T)


def _sweep(panel, current):
    update = _tyler_step(panel, current)
    return update * (panel.shape[0] / np.trace(update))


def _secant(before, swept_before, current, swept):
    # Anderson step from a single difference: the combination of the two
    # sweeps whose residuals combine to the least Frobenius norm
    f, d_f = swept - current, (swept - current) - (swept_before - before)
    gamma = np.sum(d_f * f) / np.sum(d_f * d_f)
    mixed = swept - gamma * (swept - swept_before)
    return mixed * (mixed.shape[0] / np.trace(mixed))


def test_tyler_falls_back_to_plain_sweep_when_mixing_fails(monkeypatch):
    returns = gen_panel(FactorModelSpec(m=40, N=400, K=3, rho=0.8, nu=0.5,
                                        factor_snr=10.0, seed=5)).returns
    want, _ = _plain_tyler(returns)
    first = _sweep(returns, np.eye(40))
    second = _sweep(returns, first)
    fourth = _sweep(returns, second)
    calls = _counting_sweeps(monkeypatch, reject={3})
    got = tyler(returns).values
    # sweeps 1 and 2 are plain and sweep 3 is the first mixed iterate; after
    # its rejection sweep 4 restarts from sweep 2's output, and sweep 5
    # mixes sweeps 2 and 4 alone: the history before the failure is gone
    mixed = _secant(np.eye(40), first, first, second)
    assert np.linalg.norm(calls[2] - mixed) <= 1e-10 * np.linalg.norm(mixed)
    np.testing.assert_array_equal(calls[3], second)
    restart = _secant(first, second, second, fourth)
    assert (np.linalg.norm(calls[4] - restart)
            <= 1e-10 * np.linalg.norm(restart))
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)
    assert fixed_point_residual(returns, got) < 1e-7


@pytest.mark.filterwarnings("error")
def test_anderson_history_drops_repeated_or_collinear_residuals():
    history = robust._Anderson(3)
    sweep = np.array([1.0, 2.0, 3.0])
    assert history.mix(np.array([1.0, 0.0, 0.0]), sweep) is None
    assert history.mix(np.array([0.5, 1.0, 0.0]), sweep) is not None
    # a residual equal to the last one gives a zero difference
    assert history.mix(np.array([0.5, 1.0, 0.0]), sweep) is None
    assert history.count == 0
    assert history.mix(np.array([0.25, 0.5, 0.0]), sweep) is not None
    # a difference parallel to the stored one leaves the Gram matrix
    # singular
    assert history.mix(np.array([0.0, 0.0, 0.0]), sweep) is None
    assert history.count == 0


@pytest.mark.parametrize("reject", [{1}, {3, 4}])
def test_tyler_failure_at_a_plain_iterate_raises(monkeypatch, reject):
    # sweep 1 runs at the identity; sweep 4 at the plain sweep 2 that the
    # rejected mixed sweep 3 falls back to
    returns = _noise_panel(20, 200, rho=0.6, nu=0.5, seed=13).returns
    _counting_sweeps(monkeypatch, reject=reject)
    with pytest.raises(SingularMatrixError, match="positive definite"):
        tyler(returns)


def test_tyler_nonconvergence_carries_the_last_plain_sweep(monkeypatch):
    returns = gen_panel(FactorModelSpec(m=40, N=400, K=3, rho=0.8, nu=0.5,
                                        factor_snr=10.0, seed=6)).returns
    calls = _counting_sweeps(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        tyler(returns, TylerConfig(max_iter=6, tol=1e-12))
    assert len(calls) == 6
    last = _sweep(returns, calls[-1])
    iterate = info.value.iterate
    np.testing.assert_array_equal(iterate, last)
    np.testing.assert_array_equal(iterate, iterate.T)
    assert np.linalg.eigvalsh(iterate).min() > 0.0
    assert info.value.residual == pytest.approx(
        np.linalg.norm(last - calls[-1]) / np.linalg.norm(calls[-1]),
        rel=1e-12)


def test_fixed_point_residual_rejects_indefinite_scatter():
    rng = np.random.default_rng(9)
    panel = rng.standard_normal((5, 40))
    with pytest.raises(SingularMatrixError, match="positive definite"):
        fixed_point_residual(panel, -np.eye(5))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("estimate", [tyler, scm, clean_covariance])
def test_non_finite_panel_entry_rejected(estimate, value):
    rng = np.random.default_rng(10)
    panel = rng.standard_normal((4, 30))
    panel[2, 17] = value
    panel[3, 25] = value
    with pytest.raises(DegenerateDataError,
                       match=r"\(asset 2, observation 17\) is not finite"):
        estimate(panel)


def test_tyler_start_validation():
    rng = np.random.default_rng(11)
    panel = rng.standard_normal((4, 40))
    with pytest.raises(ParameterError, match="4 x 4"):
        tyler(panel, start=np.eye(3))
    nan_start = np.eye(4)
    nan_start[1, 2] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        tyler(panel, start=nan_start)
    with pytest.raises(SingularMatrixError, match="start is not positive"):
        tyler(panel, start=np.diag([3.0, 2.0, 1.0, -1.0]))


def test_tyler_started_at_its_fixed_point_takes_one_sweep(monkeypatch):
    panel = _noise_panel(20, 200, rho=0.6, nu=0.5, seed=12).returns
    fit = tyler(panel).values
    sweeps = []
    step = robust._tyler_step
    monkeypatch.setattr(robust, "_tyler_step",
                        lambda *args: sweeps.append(1) or step(*args))
    # the start's scale is irrelevant: it is put on trace m first
    again = tyler(panel, start=3.0 * fit).values
    assert len(sweeps) == 1
    assert np.linalg.norm(again - fit) <= 1e-8 * np.linalg.norm(fit)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       mix=arrays(float, (6, 6), elements=st.floats(-1.0, 1.0)),
       scales=arrays(float, 60, elements=st.floats(1e-3, 1e3)))
def test_tyler_is_affine_equivariant(m, seed, mix, scales):
    # tyler(A X D) = A tyler(X) A' up to scale, for invertible A and any
    # positive per-observation scales D: the identity that lets the
    # pipeline start its second pass at the whitened first-pass estimate
    a = np.eye(m) + 0.5 * mix[:m, :m]
    assume(np.linalg.cond(a) < 1e3)
    panel = np.random.default_rng(seed).standard_normal((m, 10 * m))
    cfg = TylerConfig(tol=1e-12, max_iter=2000)
    got = tyler(a @ panel * scales[:10 * m], cfg).values
    want = a @ tyler(panel, cfg).values @ a.T
    want *= m / np.trace(want)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_tyler_nonconvergence_carries_residual():
    rng = np.random.default_rng(8)
    panel = rng.standard_normal((8, 100))
    with pytest.raises(ConvergenceError) as info:
        tyler(panel, TylerConfig(max_iter=1, tol=1e-12))
    assert info.value.residual is not None
    assert info.value.residual > 1e-12
    assert info.value.iterate is not None


def test_tyler_config_validation():
    with pytest.raises(ParameterError):
        TylerConfig(max_iter=0)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            TylerConfig(tol=bad)


# ---------------------------------------------------------------- toeplitzify


def test_toeplitzify_worked_example():
    got = toeplitzify(np.array([[1.0, 2.0], [4.0, 3.0]]))
    np.testing.assert_allclose(got, [[2.0, 1.5], [1.5, 2.0]])


def test_toeplitzify_shrinks_off_diagonal():
    # the /m rule biases every lag toward zero, visible already at m=2
    got = toeplitzify(np.array([[1.0, 0.8], [0.8, 1.0]]))
    np.testing.assert_allclose(got, [[1.0, 0.4], [0.4, 1.0]])


def test_toeplitzify_identity_fixed():
    np.testing.assert_array_equal(toeplitzify(np.eye(5)), np.eye(5))


def test_toeplitzify_constant_diagonals():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((17, 17))
    out = toeplitzify(a)
    for lag in range(17):
        diag = np.diagonal(out, offset=lag)
        assert np.ptp(diag) == 0.0 if diag.size else True
    np.testing.assert_array_equal(out, out.T)


def test_toeplitzify_preserves_psd():
    rng = np.random.default_rng(10)
    for _ in range(25):
        b = rng.standard_normal((12, 12))
        psd = b @ b.T
        assert np.linalg.eigvalsh(toeplitzify(psd)).min() > -1e-12


def test_toeplitzify_biased_is_not_idempotent():
    # applying the /m rule twice tapers lag l by another (m-l)/m
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    once = toeplitzify(a)
    twice = toeplitzify(once)
    m = 6
    for lag in range(1, m):
        expected = once[0, lag] * (m - lag) / m
        assert abs(twice[0, lag] - expected) < 1e-14


def test_toeplitzify_unbiased_is_projection():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((9, 9))
    once = toeplitzify(a, biased=False)
    np.testing.assert_array_equal(once, toeplitzify(once, biased=False))
    # and it leaves symmetric Toeplitz matrices untouched
    toe = gen_toeplitz_scatter(9, 0.7)
    np.testing.assert_allclose(toeplitzify(toe, biased=False), toe,
                               atol=1e-15)


def test_toeplitzify_flavors_differ_by_taper():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8))
    biased = toeplitzify(a)
    unbiased = toeplitzify(a, biased=False)
    m = 8
    for lag in range(m):
        assert biased[0, lag] == pytest.approx(
            unbiased[0, lag] * (m - lag) / m, abs=1e-15)


def test_toeplitzify_rejects_non_square():
    with pytest.raises(ParameterError):
        toeplitzify(np.zeros((2, 3)))


# ---------------------------------------------------------------- inv_sqrt


def test_inv_sqrt_identity():
    np.testing.assert_allclose(inv_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_inv_sqrt_diagonal():
    got = inv_sqrt(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 1.0]), atol=1e-14)


def test_inv_sqrt_reconstruction():
    rng = np.random.default_rng(14)
    b = rng.standard_normal((50, 50))
    spd = b @ b.T + 50.0 * np.eye(50)
    w = inv_sqrt(spd)
    assert np.linalg.norm(w @ spd @ w - np.eye(50), 2) < 1e-8


def test_inv_sqrt_flooring_warns():
    nearly_singular = np.diag([1.0, 1.0, 1e-30])
    with pytest.warns(EigenvalueFloorWarning):
        w = inv_sqrt(nearly_singular, eigen_floor=1e-10)
    assert np.all(np.isfinite(w))


def test_inv_sqrt_rejects_a_negative_or_non_finite_floor():
    for bad in (-1e-10, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            inv_sqrt(np.eye(3), eigen_floor=bad)


def test_inv_sqrt_all_zero_rejected():
    with pytest.raises(SingularMatrixError):
        inv_sqrt(np.zeros((3, 3)))


def test_inv_sqrt_negative_semidefinite_rejected():
    with pytest.raises(SingularMatrixError):
        inv_sqrt(-np.eye(3))


# ---------------------------------------------------------------- whitening


def test_whiten_with_true_scatter_lands_in_mp_support():
    # oracle whitening: all eigenvalues of the rewhitened robust estimate
    # should fall inside the asymptotic bulk, up to finite-size slack
    panel = _noise_panel(100, 1000, rho=0.8, nu=0.5, seed=1)
    whitened = inv_sqrt(panel.true_scatter) @ panel.returns
    eigs = np.linalg.eigvalsh(tyler(whitened).values)
    c = 100 / 1000
    upper = mp_upper_bound(c)
    lower = (1.0 - np.sqrt(c)) ** 2
    assert eigs.max() < upper * 1.05
    assert eigs.min() > lower * 0.85


# ---------------------------------------------------------------- ScatterMatrix


def test_scatter_matrix_unknown_tag():
    with pytest.raises(ParameterError):
        ScatterMatrix(np.eye(2), normalization="whatever")
