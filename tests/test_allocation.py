"""Variety-ratio computation, simplex projection, and the optimizer."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from maxvariety import (CleanConfig, ConvergenceError, CovarianceInput,
                        DegenerateDataError, FactorModelSpec, MaxVarietyError,
                        OptimizerConfig, ParameterError, WeightVector,
                        clean_covariance, gen_panel, maximize_variety,
                        min_variance_variety_weights, optimize_variety, scm,
                        variety_ratio)
import maxvariety.allocation as allocation
from maxvariety.allocation import _active_set, _project
from oracles import (active_set_from_full_support, active_set_lstsq,
                     brute_force_vr)


def _random_spd(m, rng, spread=3.0):
    b = rng.standard_normal((m, m))
    sigma = b @ b.T + 0.5 * np.eye(m)
    scales = rng.uniform(1.0 / spread, spread, size=m)
    return sigma * np.outer(scales, scales)


def _sampler_max(sigma, rng):
    """Best variety ratio over 10 000 Dirichlet draws from the simplex."""
    samples = rng.dirichlet(np.ones(sigma.shape[0]), size=10_000)
    numer = samples @ np.sqrt(np.diag(sigma))
    denom = np.sqrt(np.einsum("ij,jk,ik->i", samples, sigma, samples))
    return (numer / denom).max()


# ---------------------------------------------------------------- ratio


def test_variety_ratio_single_asset():
    assert variety_ratio([1.0], np.array([[4.0]])) == pytest.approx(1.0)


def test_variety_ratio_equal_weight_identity():
    w = np.full(4, 0.25)
    assert variety_ratio(w, np.eye(4)) == pytest.approx(2.0)


def test_variety_ratio_two_uncorrelated():
    # 50/50 across two uncorrelated unit-vol assets diversifies by sqrt(2)
    got = variety_ratio([0.5, 0.5], np.eye(2))
    assert got == pytest.approx(np.sqrt(2.0))


def test_variety_ratio_is_one_for_perfect_correlation():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert variety_ratio([0.3, 0.7], sigma) == pytest.approx(1.0)


def test_variety_ratio_at_least_one_on_simplex():
    rng = np.random.default_rng(30)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        sigma = _random_spd(m, rng)
        w = rng.dirichlet(np.ones(m))
        assert variety_ratio(w, sigma) >= 1.0 - 1e-12


def test_variety_ratio_rejects_zero_variance():
    with pytest.raises(DegenerateDataError):
        variety_ratio([0.5, 0.5], np.diag([1.0, 0.0]))


# ---------------------------------------------------------------- projection


def _project_oracle(v):
    """Exhaustive support search for min ||w - v|| on the simplex."""
    m = len(v)
    best, best_d = None, np.inf
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            idx = list(support)
            theta = (np.sum(v[idx]) - 1.0) / r
            w = np.zeros(m)
            w[idx] = v[idx] - theta
            if np.any(w[idx] < -1e-12):
                continue
            w = np.maximum(w, 0.0)
            d = np.sum((w - v) ** 2)
            if d < best_d:
                best, best_d = w, d
    return best


def test_project_simplex_fixtures():
    np.testing.assert_allclose(_project(np.array([0.4, 0.6])),
                               [0.4, 0.6], atol=1e-14)
    np.testing.assert_allclose(_project(np.array([2.0, 0.0])),
                               [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(_project(np.zeros(3)),
                               np.full(3, 1.0 / 3.0), atol=1e-14)


def test_project_simplex_matches_support_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        v = rng.normal(scale=2.0, size=m)
        got = _project(v)
        want = _project_oracle(v)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert got.min() >= 0.0


# ---------------------------------------------------------------- brute force


def test_brute_force_two_assets():
    sigma = np.diag([1.0, 1.0])
    w = brute_force_vr(sigma, step=0.01).weights
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)


def test_brute_force_refuses_large_m():
    with pytest.raises(ParameterError):
        brute_force_vr(np.eye(5), step=0.1)


def test_brute_force_grid_membership():
    rng = np.random.default_rng(32)
    sigma = _random_spd(3, rng)
    w = brute_force_vr(sigma, step=0.05).weights
    np.testing.assert_allclose(w * 20, np.round(w * 20), atol=1e-9)


# ---------------------------------------------------------------- optimizer


def test_maximize_variety_identity_gives_equal_weights():
    w = maximize_variety(np.eye(6)).weights
    np.testing.assert_allclose(w, np.full(6, 1.0 / 6.0), atol=1e-6)


def test_maximize_variety_known_diagonal_solution():
    # uncorrelated assets: optimal weights scale with inverse volatility
    sigma = np.diag([1.0, 1.0, 4.0])
    result = optimize_variety(sigma)
    np.testing.assert_allclose(result.weights.weights, [0.4, 0.4, 0.2],
                               atol=1e-6)
    assert result.variety_ratio == pytest.approx(np.sqrt(3.0), abs=1e-9)
    assert result.kkt_residual < 1e-5


def test_optimizer_matches_grid_oracle():
    rng = np.random.default_rng(33)
    for trial in range(20):
        sigma = _random_spd(3, rng)
        smart = optimize_variety(sigma)
        grid_vr = variety_ratio(brute_force_vr(sigma, step=0.001).weights,
                                sigma)
        assert smart.variety_ratio >= grid_vr - 1e-9
        assert smart.variety_ratio == pytest.approx(grid_vr, abs=1e-3)


def test_optimizer_scale_invariance():
    rng = np.random.default_rng(34)
    sigma = _random_spd(5, rng)
    base = maximize_variety(sigma).weights
    for alpha in (0.01, 1.0, 100.0):
        scaled = maximize_variety(alpha * sigma).weights
        np.testing.assert_allclose(scaled, base, atol=1e-6)


def test_optimizer_permutation_equivariance():
    rng = np.random.default_rng(35)
    sigma = _random_spd(4, rng)
    perm = np.array([2, 0, 3, 1])
    base = maximize_variety(sigma).weights
    shuffled = maximize_variety(sigma[np.ix_(perm, perm)]).weights
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-6)


def test_optimizer_weights_feasible():
    rng = np.random.default_rng(36)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        result = optimize_variety(_random_spd(m, rng))
        w = result.weights.weights
        assert w.min() >= -1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        result.weights.validate()


def test_optimizer_beats_corners_and_random_points():
    rng = np.random.default_rng(37)
    sigma = _random_spd(6, rng)
    result = optimize_variety(sigma)
    best = result.variety_ratio
    for i in range(6):
        corner = np.zeros(6)
        corner[i] = 1.0
        assert best >= variety_ratio(corner, sigma) - 1e-9
    # verification sampler: no random simplex point may beat the optimum
    # by more than the convergence tolerance
    assert best >= _sampler_max(sigma, rng) - 1e-6


def test_optimizer_agrees_with_min_variance_form():
    # the same portfolio solves min-variance on the correlation matrix
    rng = np.random.default_rng(38)
    for _ in range(10):
        sigma = _random_spd(5, rng)
        a = maximize_variety(sigma).weights
        b = min_variance_variety_weights(sigma).weights
        np.testing.assert_allclose(a, b, atol=1e-6)
        assert variety_ratio(a, sigma) == pytest.approx(
            variety_ratio(b, sigma), abs=1e-6)


def _correlations(sigma):
    cov = CovarianceInput(sigma)
    return cov.sigma / np.outer(cov.vols, cov.vols)


def _spiked_covariance(rng, m=40):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.concatenate([[50.0, 30.0], np.full(m - 2, 3e-3)])
    sigma = (q * eigs) @ q.T
    return 0.5 * (sigma + sigma.T)


def _enumerate_simplex_qp(corr):
    """Exact minimum of z'Rz on the simplex by support enumeration.

    Solves the equality-constrained problem on every support and keeps the
    candidates that satisfy the sign and multiplier conditions.
    """
    m = corr.shape[0]
    best, best_val = None, np.inf
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            idx = list(support)
            try:
                raw = np.linalg.solve(corr[np.ix_(idx, idx)], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            total = raw.sum()
            if total <= 0.0 or np.any(raw / total <= 0.0):
                continue
            z = np.zeros(m)
            z[idx] = raw / total
            value = float(z @ corr @ z)
            if np.any(2.0 * (corr @ z) < 2.0 * value - 1e-10):
                continue
            if value < best_val:
                best, best_val = z, value
    return best


def test_min_variance_path_matches_support_enumeration():
    rng = np.random.default_rng(52)
    for _ in range(8):
        sigma = _random_spd(6, rng)
        vols = np.sqrt(np.diag(sigma))
        corr = sigma / np.outer(vols, vols)
        z_star = _enumerate_simplex_qp(corr)
        w_star = z_star / vols
        w_star /= w_star.sum()
        got = min_variance_variety_weights(sigma).weights
        np.testing.assert_allclose(got, w_star, atol=1e-8)


def test_optimizer_on_spiked_ill_conditioned_covariance():
    # a cleaned covariance looks like a few strong factors over a thin
    # noise floor; the flat faces this creates must not stall the solver
    rng = np.random.default_rng(53)
    sigma = _spiked_covariance(rng)
    result = optimize_variety(sigma)
    assert result.kkt_residual < 1e-8
    check = min_variance_variety_weights(sigma)
    assert result.variety_ratio == pytest.approx(
        variety_ratio(check, sigma), abs=1e-9)
    assert result.variety_ratio >= _sampler_max(sigma, rng)


def test_optimizer_on_scm_with_fewer_observations_than_assets():
    # 40 assets, 20 observations: the SCM has rank 20, so every face that
    # keeps more than 20 assets has a singular correlation block
    returns = gen_panel(FactorModelSpec(m=40, N=20, K=0, rho=0.5, nu=1.0,
                                        seed=0)).returns
    sigma = scm(returns).values
    assert np.linalg.matrix_rank(sigma) < 40
    result = optimize_variety(sigma)
    assert result.kkt_residual <= 1e-8
    assert result.variety_ratio >= _sampler_max(sigma, np.random.default_rng(54))


@pytest.mark.parametrize("m, n, seed", [(12, 4, 2), (36, 12, 0), (36, 12, 2)])
def test_optimizer_on_zero_variance_portfolio(m, n, seed):
    # so few observations that some long-only portfolio has zero variance:
    # the variety ratio is unbounded and there is no maximizer to report
    returns = gen_panel(FactorModelSpec(m=m, N=n, K=0, rho=0.5, nu=1.0,
                                        seed=seed)).returns
    with pytest.raises(DegenerateDataError, match="zero variance"):
        optimize_variety(scm(returns).values)


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_optimizer_on_duplicated_asset(scale):
    # a copy of asset 3 (or a scaled copy) makes the correlation matrix
    # singular along the direction that trades one copy for the other
    rng = np.random.default_rng(55)
    returns = rng.standard_normal((10, 200))
    returns = np.vstack([returns, scale * returns[3]])
    sigma = scm(returns).values
    result = optimize_variety(sigma)
    assert result.kkt_residual <= 1e-8
    assert result.variety_ratio >= _sampler_max(sigma, rng)


def _assert_same_walk(corr):
    want_z, want_steps = active_set_lstsq(corr)
    got_z, got_steps = _active_set(corr)
    np.testing.assert_allclose(got_z, want_z, rtol=0.0, atol=1e-10)
    assert got_steps == want_steps


@pytest.mark.parametrize("m", [5, 17, 40, 77, 120])
def test_active_set_agrees_with_least_squares_walk(m):
    rng = np.random.default_rng(60 + m)
    for _ in range(3):
        _assert_same_walk(_correlations(_random_spd(m, rng)))


def test_active_set_agrees_with_least_squares_walk_when_ill_conditioned():
    _assert_same_walk(_correlations(_spiked_covariance(
        np.random.default_rng(53))))
    panel = gen_panel(FactorModelSpec(m=100, N=1000, K=3, rho=0.8, nu=0.5,
                                      factor_snr=10.0, seed=10002))
    report = clean_covariance(panel.returns, CleanConfig(demean=False))
    assert report.k_hat == 3
    corr = _correlations(report.denoised)
    assert np.linalg.cond(corr) > 1e5
    _assert_same_walk(corr)


def test_well_conditioned_faces_need_no_least_squares(monkeypatch):
    sigma = _random_spd(30, np.random.default_rng(61))
    want_z, want_steps = active_set_lstsq(_correlations(sigma))

    def refuse(*args, **kwargs):
        raise AssertionError("least squares called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    result = optimize_variety(sigma)
    assert result.iterations == want_steps > 1
    vols = np.sqrt(np.diag(sigma))
    want_w = want_z / vols
    np.testing.assert_allclose(result.weights.weights, want_w / want_w.sum(),
                               rtol=0.0, atol=1e-10)


def _duplicated_asset(scale):
    returns = np.random.default_rng(55).standard_normal((10, 200))
    return scm(np.vstack([returns, scale * returns[3]])).values


def _scm_of(m, n, seed):
    return scm(gen_panel(FactorModelSpec(m=m, N=n, K=0, rho=0.5, nu=1.0,
                                         seed=seed)).returns).values


def _count_calls(monkeypatch, solver):
    calls = []
    call = getattr(np.linalg, solver)

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return call(*args, **kwargs)

    monkeypatch.setattr(np.linalg, solver, counted)
    return calls


# each singular input and the LU solves its walk tries: a drop from a face
# that least squares found to have nullity >= 2 skips LU.  The m=40 N=20
# walk meets nullities 19, 18, ..., 1 on its first 19 faces, so only the
# first of them and the 19 faces after them try LU.
_SINGULAR = {
    "duplicate": (_duplicated_asset(1.0), 1),
    "scaled-duplicate": (_duplicated_asset(3.0), 1),
    "scm-m40-N20": (_scm_of(40, 20, 0), 20),
    "zero-variance-m12-N4": (_scm_of(12, 4, 2), 1),
    "zero-variance-m36-N12-seed0": (_scm_of(36, 12, 0), 1),
    "zero-variance-m36-N12-seed2": (_scm_of(36, 12, 2), 1),
}


@pytest.mark.parametrize("name", list(_SINGULAR))
def test_singular_faces_fall_back_to_least_squares(monkeypatch, name):
    sigma, lu_attempts = _SINGULAR[name]
    corr = _correlations(sigma)
    want_z, want_steps = active_set_lstsq(corr)
    lstsq_calls = _count_calls(monkeypatch, "lstsq")
    lu_calls = _count_calls(monkeypatch, "solve")
    got_z, got_steps = _active_set(corr)
    assert lstsq_calls
    assert len(lu_calls) == lu_attempts
    np.testing.assert_allclose(got_z, want_z, rtol=0.0, atol=1e-10)
    assert got_steps == want_steps


def _scm_draw(rng, m, ratio, tails):
    n = round(ratio * m)
    if tails == "t3":
        return np.cov(rng.standard_t(3.0, (m, n)))
    return np.cov(rng.standard_normal((m, n)))


def _one_factor(rng, m):
    beta = rng.uniform(0.5, 1.5, m)
    return np.outer(beta, beta) + np.diag(rng.uniform(0.1, 1.0, m))


def _walk_families(rng):
    yield _random_spd(30, rng)
    for ratio in (1.02, 1.5, 3.0, 6.0, 12.0):
        for tails in ("gaussian", "t3"):
            yield _scm_draw(rng, 40, ratio, tails)
    yield _one_factor(rng, 40)
    yield _spiked_covariance(rng)


def test_crash_start_ends_where_the_walk_from_full_support_ends():
    # the crash start and block entry change the path, not the face the
    # walk ends on, so the LU solve of that face gives the same bits
    steps = [0, 0]
    for seed in range(8):
        for sigma in _walk_families(np.random.default_rng(seed)):
            corr = _correlations(sigma)
            want_z, want_steps = active_set_from_full_support(corr)
            got_z, got_steps = _active_set(corr)
            np.testing.assert_array_equal(got_z, want_z)
            steps[0] += want_steps
            steps[1] += got_steps
    assert steps[1] < steps[0]


def _faces_solved(monkeypatch):
    """The correlation block of every face ``_active_set`` solves."""
    blocks = []
    solve = allocation._face_minimizer

    def spied(kkt, probe, try_lu):
        blocks.append(kkt[:-1, :-1].copy())
        return solve(kkt, probe, try_lu)

    monkeypatch.setattr(allocation, "_face_minimizer", spied)
    return blocks


def _assert_faces(blocks, matrix, faces):
    assert len(blocks) == len(faces)
    for block, face in zip(blocks, faces):
        np.testing.assert_array_equal(block, matrix[np.ix_(face, face)])


@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 1.5], [1.5, 4.0]]),
    np.array([[1.0, 1.9, 1.9], [1.9, 4.0, 3.5], [1.9, 3.5, 4.0]]),
], ids=["m2", "m3"])
def test_crash_to_a_one_asset_face(monkeypatch, matrix):
    # on a correlation matrix the unconstrained minimizer always has two
    # positive coordinates: with one, that asset's row of R z = lambda 1
    # would force lambda >= 1, the variance of a single asset.  A
    # covariance whose first asset hedges the others has one, and the walk
    # solves it the same way.
    blocks = _faces_solved(monkeypatch)
    z, steps = _active_set(matrix)
    _assert_faces(blocks, matrix, [range(matrix.shape[0]), [0]])
    np.testing.assert_array_equal(z, np.eye(matrix.shape[0])[0])
    assert steps == 2
    assert active_set_lstsq(matrix)[1] == steps
    np.testing.assert_array_equal(active_set_from_full_support(matrix)[0], z)


def test_block_entry_drops_an_entrant_by_a_zero_length_step(monkeypatch):
    # the crash lands on assets 0 and 3; assets 1 and 2 then enter
    # together, the face minimizer puts -2e-4 on asset 1, and as an
    # entrant it sits at zero, so it leaves by a step of length zero
    b = np.random.default_rng(9416).standard_normal((5, 7))
    corr = _correlations(b @ b.T)
    blocks = _faces_solved(monkeypatch)
    z, steps = _active_set(corr)
    _assert_faces(blocks, corr, [range(5), [0, 3], [0, 1, 2, 3], [0, 2, 3]])
    assert steps == 4
    assert z[1] == z[4] == 0.0
    _assert_same_walk(corr)
    np.testing.assert_array_equal(active_set_from_full_support(corr)[0], z)


@pytest.mark.parametrize("corr", [
    np.ones((1, 1)),
    np.array([[1.0, -0.9], [-0.9, 1.0]]),
    np.array([[1.0, 0.3], [0.3, 1.0]]),
], ids=["m1", "m2-negative", "m2-positive"])
def test_one_or_two_assets_take_one_step(corr):
    z, steps = _active_set(corr)
    assert steps == 1
    np.testing.assert_allclose(z, 1.0 / corr.shape[0], rtol=0.0,
                               atol=1e-15)
    _assert_same_walk(corr)
    np.testing.assert_array_equal(active_set_from_full_support(corr)[0], z)


def test_full_face_that_needs_least_squares_keeps_the_walk_from_all_assets():
    # least squares finds this full face of full rank, but its minimum of
    # z'Rz is 3.2e-11: a crash start stopped on a 35-asset face within the
    # 1e-12 entry margin and failed the certificate, where the walk from
    # all assets ends on the optimal 36-asset face
    rng = np.random.default_rng(869)
    sigma = _low_rank_factor_covariance(rng, int(rng.integers(5, 80)))
    corr = _correlations(sigma)
    result = optimize_variety(sigma)
    want_z, want_steps = active_set_from_full_support(corr)
    got_z, got_steps = _active_set(corr)
    np.testing.assert_array_equal(got_z, want_z)
    assert got_steps == want_steps == result.iterations


def test_least_squares_failure_is_a_convergence_error(monkeypatch):
    # an SVD that does not converge must surface as a ConvergenceError
    # carrying the iterate, whichever face the walk meets it on
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(
            "SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    with pytest.raises(ConvergenceError,
                       match="least squares failed") as caught:
        optimize_variety(_duplicated_asset(1.0))
    iterate = caught.value.iterate
    assert iterate.shape == (11,)
    assert iterate.min() >= 0.0
    assert iterate.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("decades", [12.0, 14.0])
def test_certificate_does_not_move_with_asset_scales(decades):
    # volatilities spread over 12 or 14 decades: the solve on correlations
    # is unaffected, and so must be the risk-unit certificate
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sample = np.cov(rng.standard_normal((10, 40)))
        vols = np.sqrt(np.diag(sample))
        corr = sample / np.outer(vols, vols)
        corr = 0.5 * (corr + corr.T)
        scales = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=10)
        sigma = corr * np.outer(scales, scales)
        result = optimize_variety(sigma)
        z_star = _enumerate_simplex_qp(_correlations(sigma))
        w_star = z_star / np.sqrt(np.diag(sigma))
        np.testing.assert_allclose(result.weights.weights,
                                   w_star / w_star.sum(), rtol=1e-8, atol=0.0)
        rescale = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=10)
        moved = optimize_variety(sigma * np.outer(rescale, rescale))
        assert moved.kkt_residual == pytest.approx(result.kkt_residual,
                                                   abs=1e-13)


def test_covariance_input_rejects_non_finite_entries():
    sigma = np.eye(3)
    sigma[2, 1] = sigma[1, 2] = np.nan
    with pytest.raises(DegenerateDataError, match=r"\(1, 2\)"):
        CovarianceInput(sigma)
    with pytest.raises(DegenerateDataError):
        optimize_variety(np.diag([1.0, np.inf]))


def test_optimizer_deterministic():
    rng = np.random.default_rng(39)
    sigma = _random_spd(7, rng)
    first = optimize_variety(sigma)
    second = optimize_variety(sigma)
    np.testing.assert_array_equal(first.weights.weights,
                                  second.weights.weights)
    assert first.variety_ratio == second.variety_ratio


def test_optimizer_rejects_zero_variance_asset():
    with pytest.raises(DegenerateDataError):
        maximize_variety(np.diag([1.0, 0.0, 2.0]))


def test_optimizer_config_validation():
    for bad in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            OptimizerConfig(kkt_tol=bad)
    assert OptimizerConfig().kkt_tol == 1e-5
    # a tolerance below the solve's rounding fails the certificate
    sigma = _random_spd(6, np.random.default_rng(40))
    with pytest.raises(ConvergenceError) as caught:
        optimize_variety(sigma, OptimizerConfig(kkt_tol=1e-300))
    assert caught.value.residual > 1e-300


@st.composite
def _factor_covariances(draw):
    """``D (B B' + diag(d)) D``: m in [2, 30], 0 to m factors, per-asset
    scales in [1e-3, 1e3], and idiosyncratic variances that may be zero,
    which makes the matrix singular whenever there are fewer factors than
    assets."""
    m = draw(st.integers(2, 30))
    k = draw(st.integers(0, m))
    b = draw(arrays(float, (m, k), elements=st.floats(-1.0, 1.0)))
    d = draw(arrays(float, m, elements=st.sampled_from([0.0, 1e-6, 1.0])))
    scales = 10.0 ** draw(arrays(float, m, elements=st.floats(-3.0, 3.0)))
    return (b @ b.T + np.diag(d)) * np.outer(scales, scales)


def _low_rank_factor_covariance(rng, m):
    """``D (B B' + diag(d)) D`` with ``d`` zero in ~30% of assets and down
    to 1e-12 elsewhere, and ``D`` spread over six decades."""
    k = rng.integers(1, m + 1)
    b = rng.standard_normal((m, k))
    d = (np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 1.0, m))
         * 10.0 ** rng.uniform(-12.0, 0.0))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, m)
    sigma = scales[:, None] * (b @ b.T + np.diag(d)) * scales[None, :]
    return 0.5 * (sigma + sigma.T)


@settings(max_examples=300)
@given(sigma=_factor_covariances())
# volatilities 1e105 apart: the certificate's gradient reaches 1e104 and
# its simplex projection used to raise a raw IndexError
@example(sigma=np.array([[1.0, 4.41083863e-106, 4.41083863e-106],
                         [4.41083863e-106, 5.83664921e-211, 5.83664921e-211],
                         [4.41083863e-106, 5.83664921e-211, 5.83664921e-211]]))
# a rank-deficient 75-asset covariance with variances 1e12 apart, on one
# of whose faces least squares raised a raw LinAlgError (SVD did not
# converge)
@example(sigma=_low_rank_factor_covariance(np.random.default_rng(58), 75))
def test_optimizer_on_factor_covariances_is_feasible_or_refuses(sigma):
    cfg = OptimizerConfig()
    try:
        result = optimize_variety(sigma, cfg)
    except MaxVarietyError:
        return
    w = result.weights.weights
    assert w.min() >= -1e-8
    assert abs(w.sum() - 1.0) <= 1e-8
    assert result.kkt_residual <= cfg.kkt_tol


# ---------------------------------------------------------------- containers


def test_covariance_input_from_covariance():
    sigma = np.array([[4.0, 0.6], [0.6, 1.0]])
    cov = CovarianceInput(sigma)
    np.testing.assert_allclose(cov.vols, [2.0, 1.0])


def test_covariance_input_rejects_an_empty_matrix():
    for call in (CovarianceInput, optimize_variety):
        with pytest.raises(ParameterError, match="empty"):
            call(np.zeros((0, 0)))
    # one asset holds everything
    result = optimize_variety(np.array([[4.0]]))
    np.testing.assert_array_equal(result.weights.weights, [1.0])
    assert result.variety_ratio == 1.0


def test_covariance_input_rejects_asymmetry():
    with pytest.raises(ParameterError):
        CovarianceInput(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_weight_vector_validate():
    WeightVector(np.array([0.25, 0.75])).validate()
    with pytest.raises(ParameterError):
        WeightVector(np.array([0.7, 0.7])).validate()
    with pytest.raises(ParameterError):
        WeightVector(np.array([-0.2, 1.2])).validate()
