"""Spectrum tools and the full cleaning pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import maxvariety.denoise as denoise
import maxvariety.robust as robust

from maxvariety import (CleanConfig, CleaningReport, DegenerateDataError,
                        DegenerateSpectrumError, EigenSpectrum,
                        FactorModelSpec, InsufficientSamplesError,
                        ParameterError, clean_covariance, clip_spectrum,
                        eigen_spectrum, gen_panel, mp_upper_bound,
                        order_threshold, save_eigenvalue_histogram, scm,
                        select_order, tyler)


# ---------------------------------------------------------------- bounds


def test_mp_upper_bound_tenth():
    assert mp_upper_bound(0.1) == pytest.approx(1.7324555320336759, abs=1e-12)


def test_mp_upper_bound_grid():
    for c in (0.01, 0.25, 0.5, 1.0, 2.0):
        assert mp_upper_bound(c) == (1.0 + np.sqrt(c)) ** 2


def test_mp_upper_bound_rejects_nonpositive():
    with pytest.raises(ParameterError):
        mp_upper_bound(0.0)
    with pytest.raises(ParameterError):
        mp_upper_bound(-0.3)


def test_order_threshold_closed_form():
    # Johnstone (2001) centring and scaling plus the TW1 99% quantile
    a, b = np.sqrt(999.0), 10.0
    mu = (a + b) ** 2 / 1000
    sigma = (a + b) * (1 / a + 1 / b) ** (1 / 3) / 1000
    value = order_threshold(100, 1000)
    assert value == pytest.approx(mu + 2.0234 * sigma, abs=1e-12)
    assert value == pytest.approx(1.7740, abs=5e-5)
    assert value > mp_upper_bound(0.1)


def test_order_threshold_rejects_degenerate_shape():
    with pytest.raises(ParameterError):
        order_threshold(0, 100)
    with pytest.raises(ParameterError):
        order_threshold(10, 1)


# ---------------------------------------------------------------- order


def test_select_order_basic():
    assert select_order(np.array([10.0, 3.0, 1.2, 0.9]),
                        mp_upper_bound(0.01)) == 2


def test_select_order_all_bulk():
    assert select_order(np.array([1.5, 1.2, 0.8]), mp_upper_bound(0.1)) == 0


def test_select_order_strict_at_threshold():
    lam = mp_upper_bound(0.1)
    assert select_order(np.array([lam, 1.0]), lam) == 0
    assert select_order(np.array([lam + 1e-12, 1.0]), lam) == 1


def test_select_order_accepts_spectrum_object():
    spec = eigen_spectrum(np.diag([5.0, 1.0, 0.5]))
    assert select_order(spec, mp_upper_bound(0.01)) == 1


# ---------------------------------------------------------------- spectrum


def test_eigen_spectrum_descending_and_consistent():
    rng = np.random.default_rng(20)
    b = rng.standard_normal((6, 6))
    spd = b @ b.T
    spec = eigen_spectrum(spd)
    assert np.all(np.diff(spec.eigenvalues) <= 0.0)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
    np.testing.assert_allclose(recon, spd, atol=1e-10)


# ---------------------------------------------------------------- clipping


def test_clip_spectrum_worked_example():
    got = clip_spectrum(np.array([5.0, 1.0, 0.5, 0.5]), k=1)
    np.testing.assert_allclose(got, [5.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])


def test_clip_spectrum_k_zero_flattens_to_mean():
    eigs = np.array([4.0, 2.0, 1.0, 1.0])
    got = clip_spectrum(eigs, k=0)
    np.testing.assert_allclose(got, np.full(4, 2.0))


def test_clip_spectrum_k_full_is_identity():
    eigs = np.array([4.0, 2.0, 1.0])
    got = clip_spectrum(eigs, k=3)
    np.testing.assert_array_equal(got, eigs)
    assert got is not eigs


def test_clip_spectrum_preserves_trace():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(2, 30))
        eigs = np.sort(rng.uniform(0.1, 10.0, size=m))[::-1]
        k = int(rng.integers(0, m))
        clipped = clip_spectrum(eigs, k)
        assert abs(clipped.sum() - eigs.sum()) < 1e-8
        np.testing.assert_array_equal(clipped[:k], eigs[:k])
        if k < m:
            assert np.ptp(clipped[k:]) == 0.0


def test_clip_spectrum_validation():
    with pytest.raises(ParameterError):
        clip_spectrum(np.array([1.0, 2.0]), k=0)  # not descending
    with pytest.raises(ParameterError):
        clip_spectrum(np.array([2.0, 1.0]), k=3)  # k out of range


def test_clip_spectrum_degenerate_remainder():
    # all mass in the kept part leaves nothing to spread
    with pytest.raises(DegenerateSpectrumError):
        clip_spectrum(np.array([3.0, 0.0, 0.0]), k=1)


# ---------------------------------------------------------------- pipeline


def _factor_spec(seed, K=3):
    return FactorModelSpec(m=100, N=1000, K=K, rho=0.8, nu=0.5,
                           factor_snr=10.0, seed=seed)


def test_clean_covariance_detects_factors():
    panel = gen_panel(_factor_spec(seed=0))
    report = clean_covariance(panel.returns, CleanConfig(demean=False))
    assert report.k_hat == 3
    assert report.lambda_bar == pytest.approx(mp_upper_bound(0.1))
    assert report.threshold == order_threshold(100, 1000)
    # the paper-literal count at the bulk edge stays available
    assert select_order(report.spectrum, report.lambda_bar) == 3
    assert report.ratio_c == pytest.approx(0.1)
    assert report.denoised.shape == (100, 100)


def test_clean_covariance_output_is_spd_with_sample_variances():
    spec = FactorModelSpec(m=20, N=400, K=2, rho=0.5, nu=1.0,
                           factor_snr=5.0, seed=3)
    panel = gen_panel(spec)
    report = clean_covariance(panel.returns, CleanConfig(demean=False))
    sigma = report.denoised
    np.testing.assert_allclose(sigma, sigma.T, atol=1e-10)
    assert np.linalg.eigvalsh(sigma).min() > 0.0
    np.testing.assert_allclose(np.diag(sigma),
                               np.var(panel.returns, axis=1, ddof=1),
                               rtol=1e-10)
    assert 0 <= report.k_hat <= 20


def test_clean_covariance_k_grows_with_planted_rank():
    base = dict(m=60, N=900, rho=0.3, nu=1.0, factor_snr=12.0, seed=11)
    hats = []
    for k in (0, 2, 5):
        panel = gen_panel(FactorModelSpec(K=k, **base))
        report = clean_covariance(panel.returns, CleanConfig(demean=False))
        hats.append(report.k_hat)
    assert hats[0] <= hats[1] <= hats[2]
    assert hats[2] >= 4  # strong factors should mostly be found


def test_clean_covariance_beats_raw_counting():
    # on pure correlated heavy-tailed noise, thresholding raw sample
    # eigenvalues invents a dozen factors; the whitened pipeline does not
    spec = FactorModelSpec(m=100, N=1000, K=0, rho=0.8, nu=0.5,
                           factor_snr=0.0, seed=5)
    panel = gen_panel(spec)
    raw = scm(panel.returns).values
    raw_eigs = np.linalg.eigvalsh(raw)[::-1]
    raw_count = int(np.sum(raw_eigs / raw_eigs.mean() > mp_upper_bound(0.1)))
    report = clean_covariance(panel.returns, CleanConfig(demean=False))
    assert raw_count >= 10
    assert report.k_hat <= 1


@pytest.mark.parametrize("k", [0, 3])
def test_clean_covariance_second_pass_is_one_sweep(monkeypatch, k):
    # pass 2 starts at the whitened pass-1 estimate, its fixed point by
    # affine equivariance, so a single sweep certifies it
    panel = gen_panel(FactorModelSpec(m=40, N=400, K=k, rho=0.8, nu=0.5,
                                      factor_snr=10.0, seed=k)).returns
    sweeps, passes = [], []
    step = robust._tyler_step
    monkeypatch.setattr(robust, "_tyler_step",
                        lambda *args: sweeps.append(1) or step(*args))
    monkeypatch.setattr(
        denoise, "tyler",
        lambda work, *args, **kw: passes.append((work, len(sweeps)))
        or tyler(work, *args, **kw))
    report = clean_covariance(panel, CleanConfig(demean=False))
    assert len(passes) == 2
    whitened, before_pass2 = passes[1]
    assert len(sweeps) - before_pass2 == 1
    want = np.linalg.eigvalsh(tyler(whitened).values)[::-1]
    np.testing.assert_allclose(report.spectrum.eigenvalues, want, rtol=1e-6)


def test_clean_covariance_needs_tall_panel():
    rng = np.random.default_rng(22)
    with pytest.raises(InsufficientSamplesError):
        clean_covariance(rng.standard_normal((50, 50)))


def test_clean_covariance_rejects_constant_asset():
    rng = np.random.default_rng(23)
    panel = rng.standard_normal((5, 100))
    panel[2, :] = 7.5
    with pytest.raises(DegenerateDataError, match="2"):
        clean_covariance(panel)


def test_cleaning_report_to_dict():
    panel = gen_panel(FactorModelSpec(m=10, N=200, K=1, rho=0.2, nu=1.0,
                                      factor_snr=8.0, seed=4))
    report = clean_covariance(panel.returns, CleanConfig(demean=False))
    d = report.to_dict()
    assert d["k_hat"] == report.k_hat
    assert d["threshold"] == report.threshold
    assert len(d["eigenvalues"]) == 10
    assert isinstance(d["warnings"], list)


def test_eigenvalue_histogram_csv(tmp_path):
    rng = np.random.default_rng(24)
    eigs = rng.uniform(0.5, 2.0, size=200)
    path = tmp_path / "hist.csv"
    save_eigenvalue_histogram(eigs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_center,count"
    assert len(lines) == 61
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 200


def test_eigen_spectrum_rejects_non_square():
    with pytest.raises(ParameterError):
        eigen_spectrum(np.zeros((2, 3)))
