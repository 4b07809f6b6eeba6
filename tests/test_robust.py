"""Scatter estimation tests: sample covariance, fixed-point estimator,
Toeplitz rectification, inverse square root."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import maxvariety.robust as robust

from maxvariety import (CleanConfig, ConvergenceError, CovarianceInput,
                        DegenerateDataError, EigenvalueFloorWarning,
                        FactorModelSpec, InsufficientSamplesError,
                        MaxVarietyError, ParameterError, ScatterMatrix,
                        SingularMatrixError, TylerConfig, clean_covariance,
                        eigen_spectrum, fixed_point_residual, gen_panel,
                        gen_toeplitz_scatter, inv_sqrt, mp_upper_bound, scm,
                        toeplitzify, tyler)
from maxvariety.robust import _tri_inv, _tyler_step


def _noise_panel(m, n, rho, nu, seed):
    spec = FactorModelSpec(m=m, N=n, K=0, rho=rho, nu=nu, factor_snr=0.0,
                           seed=seed)
    return gen_panel(spec)


# ---------------------------------------------------------------- scm


def test_scm_single_column_outer_product():
    got = scm(np.array([[1.0], [2.0]]), demean=False)
    np.testing.assert_array_equal(got.values, [[1.0, 2.0], [2.0, 4.0]])


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


def _factor_panel(k, seed):
    # the model of the allocate-spiked and order-null benchmark panels
    return gen_panel(FactorModelSpec(m=100, N=1000, K=k, rho=0.8, nu=0.5,
                                     factor_snr=10.0, seed=seed)).returns


def _lower_factors():
    # well-conditioned Cholesky factors on both sides of the blocked
    # inverse's leaf size and splits, and the factor of a three-factor
    # pass-1 estimate, whose bulk eigenvalues (~5e-6) sit seven orders
    # below its spikes (~35)
    rng = np.random.default_rng(17)
    for m in (1, 2, 31, 32, 33, 65, 100, 257):
        root = rng.standard_normal((m, 2 * m))
        yield np.linalg.cholesky(root @ root.T / (2 * m) + np.eye(m))
        yield np.linalg.cholesky(gen_toeplitz_scatter(m, 0.8))
    yield np.linalg.cholesky(tyler(_factor_panel(3, 10_001)).values)


@pytest.mark.parametrize("lower", list(_lower_factors()),
                         ids=lambda lower: str(lower.shape[0]))
def test_blocked_triangular_inverse_matches_lapack(lower):
    m = lower.shape[0]
    got, want = _tri_inv(lower), np.linalg.inv(lower)
    assert not np.triu(got, 1).any()
    eye = np.eye(m)
    defect = np.abs(got @ lower - eye).max()
    assert defect <= 2.0 * max(np.abs(want @ lower - eye).max(),
                               np.finfo(float).eps)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _inv_tyler_step(panel, current):
    # reference sweep: the quadratic forms from LAPACK's inverse of the
    # Cholesky factor
    m, n = panel.shape
    white = np.linalg.inv(np.linalg.cholesky(current)) @ panel
    scaled = panel / np.sqrt(np.einsum("ij,ij->j", white, white))
    update = (m / n) * (scaled @ scaled.T)
    return 0.5 * (update + update.T)


@pytest.mark.parametrize("m", [40, 100])
@pytest.mark.parametrize("k", [0, 3])
def test_tyler_step_matches_the_lapack_inverse_sweep(m, k):
    returns = gen_panel(FactorModelSpec(m=m, N=10 * m, K=k, rho=0.8, nu=0.5,
                                        factor_snr=10.0, seed=k)).returns
    for current in (gen_toeplitz_scatter(m, 0.8), tyler(returns).values):
        want = _inv_tyler_step(returns, current)
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


@pytest.mark.parametrize("k", [0, 3])
def test_tyler_step_from_sums_of_squares_is_bit_identical(k):
    # a first sweep from the identity skips cholesky(I), inv(I) and I @ x,
    # on a row-major panel and on a window view of one
    returns = gen_panel(FactorModelSpec(m=20, N=250, K=k, rho=0.8, nu=0.5,
                                        factor_snr=8.0, seed=k)).returns
    for panel in (returns[:, :200].copy(), returns[:, 30:230]):
        squares = np.einsum("ij,ij->j", panel, panel)
        want = _tyler_step(panel, np.eye(20))
        np.testing.assert_array_equal(
            _tyler_step(panel, np.eye(20), quad=squares), want)
        white, scaled = np.empty((20, 200)), np.empty((20, 200))
        np.testing.assert_array_equal(
            _tyler_step(panel, np.eye(20), white, scaled, squares), want)


@pytest.mark.parametrize("k", [0, 3])
def test_tyler_ignores_the_panel_layout(k):
    # a column-major panel changes only the rounding inside BLAS; on
    # three-factor m=100 panels that rounding reaches ~2e-12 relative,
    # so the check runs at m=20
    returns = gen_panel(FactorModelSpec(m=20, N=200, K=k, rho=0.8, nu=0.5,
                                        factor_snr=8.0, seed=k)).returns
    want = tyler(returns).values
    got = tyler(np.asfortranarray(returns)).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
    # plain sweeps run until sweep j moves its iterate by less than
    # _MIX_BELOW; sweep j + 1 is plain too, since the history then holds one
    # sweep, and sweep j + 2 is the first mixed iterate
    plain = [np.eye(40), _sweep(returns, np.eye(40))]
    while (np.linalg.norm(plain[-1] - plain[-2])
           >= robust._MIX_BELOW * np.linalg.norm(plain[-2])):
        plain.append(_sweep(returns, plain[-1]))
    j = len(plain) - 1
    plain.append(_sweep(returns, plain[j]))
    after = _sweep(returns, plain[j + 1])
    calls = _counting_sweeps(monkeypatch, reject={j + 2})
    got = tyler(returns).values
    # after the rejection sweep j + 3 restarts from sweep j + 1's output,
    # and sweep j + 4 mixes sweeps j + 1 and j + 3 alone: the history
    # before the failure is gone
    mixed = _secant(plain[j - 1], plain[j], plain[j], plain[j + 1])
    assert (np.linalg.norm(calls[j + 1] - mixed)
            <= 1e-10 * np.linalg.norm(mixed))
    np.testing.assert_array_equal(calls[j + 2], plain[j + 1])
    restart = _secant(plain[j], plain[j + 1], plain[j + 1], after)
    assert (np.linalg.norm(calls[j + 3] - restart)
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


def _sweep_trail(monkeypatch):
    # record every sweep as [iterate, its sweep put on trace m]; the second
    # entry stays None when the sweep raised
    trail = []
    step = robust._tyler_step

    def recorded(panel, current, *buffers):
        trail.append([current.copy(), None])
        update = step(panel, current, *buffers)
        trail[-1][1] = update * (panel.shape[0] / np.trace(update))
        return update

    monkeypatch.setattr(robust, "_tyler_step", recorded)
    return trail


@pytest.mark.parametrize("k, allowed", [(3, range(1, 18)), (0, [8])])
def test_clean_records_pass_one_sweeps(monkeypatch, k, allowed):
    for seed in range(10001, 10005):
        trail = _sweep_trail(monkeypatch)
        report = clean_covariance(_factor_panel(k, seed),
                                  CleanConfig(demean=False))
        fit = report.robust_scatter
        # pass 2 starts at its fixed point and takes one sweep
        assert fit.sweeps == len(trail) - 1
        assert fit.sweeps in allowed
        iterate, swept = trail[fit.sweeps - 1]
        np.testing.assert_array_equal(swept, fit.values)
        assert fit.residual == (np.linalg.norm(swept - iterate)
                                / np.linalg.norm(iterate))
        assert fit.residual < TylerConfig().tol
        assert "sweeps" not in report.to_dict()


def test_tyler_rejects_no_mixed_iterate_on_one_factor_panels(monkeypatch):
    for seed in range(10001, 10009):
        trail = _sweep_trail(monkeypatch)
        fit = tyler(_factor_panel(1, seed))
        assert fit.sweeps == len(trail)
        assert all(swept is not None for _, swept in trail)


def test_tyler_sweeps_count_a_rejected_mixed_iterate(monkeypatch):
    # mixing from the first sweep makes sweep 3 the first mixed iterate
    returns = _noise_panel(20, 200, rho=0.6, nu=0.5, seed=13).returns
    monkeypatch.setattr(robust, "_MIX_BELOW", np.inf)
    calls = _counting_sweeps(monkeypatch, reject={3})
    assert tyler(returns).sweeps == len(calls)


def test_tyler_failure_at_the_plain_sweep_after_a_fallback_raises(
        monkeypatch):
    # sweep 3 is mixed and rejected; sweep 4 runs at the plain sweep 2
    returns = _noise_panel(20, 200, rho=0.6, nu=0.5, seed=13).returns
    monkeypatch.setattr(robust, "_MIX_BELOW", np.inf)
    _counting_sweeps(monkeypatch, reject={3, 4})
    with pytest.raises(SingularMatrixError, match="positive definite"):
        tyler(returns)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_tyler_mixes_only_after_a_sweep_below_the_mixing_residual(
        monkeypatch, k):
    trail = _sweep_trail(monkeypatch)
    tyler(_factor_panel(k, 10001))
    plain = [np.array_equal(after, swept)
             for (_, swept), (after, _) in zip(trail, trail[1:])]
    residuals = [np.inf if swept is None else
                 np.linalg.norm(swept - iterate) / np.linalg.norm(iterate)
                 for iterate, swept in trail]
    first = next(i for i, residual in enumerate(residuals)
                 if residual < robust._MIX_BELOW)
    # every iterate up to the sweep after the first one below _MIX_BELOW
    # is the last plain sweep; after that the iterates are mixed
    assert all(plain[:first + 1])
    assert not all(plain[first + 1:])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 30), extra=st.integers(1, 60), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1),
       scales=arrays(float, 30, elements=st.floats(1e-3, 1e3)))
def test_tyler_agrees_with_the_plain_loop_or_refuses(m, extra, k, seed,
                                                     scales):
    # with N close to m a plain sweep contracts by ~0.997, so at the default
    # tol either loop may stop ~3e-6 from the fixed point: both run at 1e-12
    rng = np.random.default_rng(seed)
    k = min(k, m - 1)
    loadings = 5.0 * rng.standard_normal((m, k))
    panel = scales[:m, None] * (
        loadings @ rng.standard_normal((k, m + extra))
        + rng.standard_normal((m, m + extra)))
    cfg = TylerConfig(tol=1e-12, max_iter=2000)
    try:
        got = tyler(panel, cfg).values
    except MaxVarietyError:
        return
    want, _ = _plain_tyler(panel, TylerConfig(tol=1e-12, max_iter=100_000))
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_fixed_point_residual_rejects_indefinite_scatter():
    rng = np.random.default_rng(9)
    panel = rng.standard_normal((5, 40))
    with pytest.raises(SingularMatrixError, match="positive definite"):
        fixed_point_residual(panel, -np.eye(5))


@pytest.mark.parametrize("estimate", [
    tyler, lambda x: fixed_point_residual(x, np.eye(4))])
def test_an_all_zero_observation_is_named(estimate):
    panel = np.random.default_rng(9).standard_normal((4, 40))
    panel[:, 7] = 0.0
    with pytest.raises(DegenerateDataError,
                       match="observation 7 is identically zero"):
        estimate(panel)


def test_fixed_point_residual_rejects_a_scatter_of_another_size():
    panel = np.random.default_rng(9).standard_normal((4, 40))
    for scatter in (np.eye(3), np.eye(5), np.ones((4, 3)), np.eye(4)[0]):
        with pytest.raises(ParameterError, match="must be"):
            fixed_point_residual(panel, scatter)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_fixed_point_residual_is_scale_free(scale):
    panel = _noise_panel(10, 100, rho=0.5, nu=1.0, seed=9).returns
    fit = tyler(panel).values
    want = fixed_point_residual(panel, fit)
    assert fixed_point_residual(panel, scale * fit) == pytest.approx(
        want, rel=1e-6)


_SQUARE_CHECKED = [toeplitzify, inv_sqrt, eigen_spectrum, ScatterMatrix,
                   CovarianceInput,
                   lambda c: fixed_point_residual(np.ones((3, 5)), c)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", _SQUARE_CHECKED)
def test_square_matrix_inputs_name_a_non_finite_entry(call, value):
    matrix = np.eye(3)
    matrix[1, 2] = matrix[2, 0] = value
    with pytest.raises(DegenerateDataError,
                       match=rf"entry \(1, 2\) is not finite: {value!r}"):
        call(matrix)


@pytest.mark.parametrize("call", _SQUARE_CHECKED)
def test_square_matrix_inputs_refuse_other_shapes(call):
    for matrix in (np.ones(3), np.ones((3, 2)), np.ones((1, 3, 3))):
        with pytest.raises(ParameterError, match="square matrix|must be"):
            call(matrix)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 150),
       layout=st.sampled_from(["C", "F", "slice"]), from_eye=st.booleans(),
       buffers=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sweep_update_and_scm_are_exactly_symmetric(m, n, layout, from_eye,
                                                      buffers, seed):
    # the sweep and scm leave ``x @ x.T`` unsymmetrized: numpy computes it
    # by one syrk that mirrors a triangle, on any of these layouts
    rng = np.random.default_rng(seed)
    panel = rng.standard_normal((m, n + 3))
    panel = (panel[:, 1:n + 1] if layout == "slice"
             else np.asarray(panel[:, :n], order=layout))
    root = rng.standard_normal((m, m))
    current = np.eye(m) if from_eye else root @ root.T + m * np.eye(m)
    quad = np.einsum("ij,ij->j", panel, panel) if from_eye else None
    work = (np.empty((m, n)), np.empty((m, n))) if buffers else (None, None)
    update = _tyler_step(panel, current, *work, quad)
    assert np.array_equal(update, update.T)
    # one demeaned observation is all zero, which scm refuses
    for demean in (False, True) if n > 1 else (False,):
        cov = scm(panel, demean=demean).values
        assert np.array_equal(cov, cov.T)


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


def _overflowing(what, index):
    # finite entries whose squares overflow: every entry of the panel, or
    # those of one asset or one observation
    panel = np.random.default_rng(14).standard_normal((10, 100))
    if what == "asset":
        panel[index] *= 1e160
    elif what == "observation":
        panel[:, index] *= 1e160
    else:
        panel *= 1e155
    return panel


@pytest.mark.parametrize("estimate, what, index, named", [
    (scm, "asset", 4, "asset 4"),
    (scm, "panel", None, "asset 0"),
    (lambda x: scm(x, demean=True), "asset", 6, "asset 6"),
    (clean_covariance, "asset", 4, "asset 4"),
    (clean_covariance, "panel", None, "asset 0"),
    (tyler, "observation", 37, "observation 37"),
    (tyler, "panel", None, "observation 0"),
    (lambda x: fixed_point_residual(x, np.eye(10)), "observation", 37,
     "observation 37"),
])
def test_overflowing_sums_of_squares_are_named(estimate, what, index,
                                                named):
    # raised before numpy warns: the test configuration makes a warning
    # an error
    with pytest.raises(DegenerateDataError,
                       match=f"sum of squares of {named} overflows"):
        estimate(_overflowing(what, index))


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


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), rank=st.integers(1, 14),
       scale=st.sampled_from([1e-100, 1.0, 1e100]),
       seed=st.integers(0, 2**32 - 1))
def test_biased_toeplitzify_never_lowers_the_smallest_eigenvalue(m, rank,
                                                                  scale,
                                                                  seed):
    # T is linear, keeps PSD matrices PSD and maps I to I, so
    # C - lambda_min(C) I >= 0 gives T(C) - lambda_min(C) I >= 0
    root = np.random.default_rng(seed).standard_normal((m, rank))
    psd = scale * (root @ root.T)
    eigs = np.linalg.eigvalsh(psd)
    got = np.linalg.eigvalsh(toeplitzify(psd)).min()
    assert got >= eigs[0] - 1e-12 * eigs[-1]


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


def _loop_toeplitzify(matrix, biased):
    # reference: one mean per lag, taken along its diagonal
    sym = 0.5 * (matrix + matrix.T)
    m = sym.shape[0]
    lag_means = [np.diagonal(sym, lag).sum() / (m if biased else m - lag)
                 for lag in range(m)]
    return np.array([[lag_means[abs(i - j)] for j in range(m)]
                     for i in range(m)])


@pytest.mark.parametrize("m", [1, 2, 5, 100])
@pytest.mark.parametrize("biased", [True, False])
def test_toeplitzify_matches_the_diagonal_loop(m, biased):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    got = toeplitzify(a, biased=biased)
    want = _loop_toeplitzify(a, biased)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-14 * np.abs(want).max())


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
