"""Spectrum tools and the full cleaning pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import maxvariety.denoise as denoise
import maxvariety.robust as robust

from maxvariety import (CleanConfig, CleaningReport, DegenerateDataError,
                        EigenSpectrum, FactorModelSpec, ParameterError,
                        clean_covariance, clip_spectrum, eigen_spectrum,
                        gen_panel, mp_upper_bound, order_threshold,
                        save_eigenvalue_histogram, scm, select_order,
                        toeplitzify, tyler)
from oracles import symmetric_clean


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spectrum_tools_refuse_a_non_finite_eigenvalue(tmp_path, value):
    eigs = np.array([3.0, 2.0, 1.0])
    eigs[1] = value
    with pytest.raises(ParameterError, match="finite eigenvalues"):
        select_order(eigs, 1.5)
    with pytest.raises(ParameterError, match="finite eigenvalues"):
        clip_spectrum(eigs, 1)
    with pytest.raises(ParameterError, match="finite, strictly positive"):
        save_eigenvalue_histogram(eigs, tmp_path / "h.csv")
    assert not (tmp_path / "h.csv").exists()


def test_clip_spectrum_degenerate_remainder():
    # all mass in the kept part leaves nothing to spread
    with pytest.raises(DegenerateDataError,
                       match="non-positive noise level 0.0"):
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


def _decompositions(monkeypatch, certificate):
    # the 30 x 30 matrices one clean decomposes, by kind, with the noise
    # scatter certified above ``certificate`` times its mean eigenvalue;
    # "refused" marks a clean that refused the noise scatter
    panel = gen_panel(FactorModelSpec(m=30, N=300, K=2, rho=0.6, nu=0.5,
                                      factor_snr=8.0, seed=4)).returns
    calls = []
    for name in ("eigh", "eigvalsh"):
        decompose = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda a, name=name, decompose=decompose:
            a.shape == (30, 30) and calls.append(name) or decompose(a))
    monkeypatch.setattr(denoise, "_CERTIFICATE", certificate)
    try:
        clean_covariance(panel, CleanConfig(demean=False))
    except DegenerateDataError:
        calls.append("refused")
    return calls


def test_clean_covariance_decomposes_two_matrices(monkeypatch):
    # the certificate holds: a Cholesky factor of the noise scatter whitens
    # and colours, and only the whitened scatter is eigendecomposed
    assert _decompositions(monkeypatch, 1e-10) == ["eigh"]


def test_clean_covariance_refusal_decomposes_the_noise_scatter_once(
        monkeypatch):
    # the rho=0.6 noise scatter has eigenvalues below half their mean, so a
    # certificate at half the mean fails; the refusal decomposes the noise
    # scatter once, to name its smallest eigenvalue, and whitens nothing
    assert _decompositions(monkeypatch, 0.5) == ["eigvalsh", "refused"]


@pytest.mark.parametrize("k", [0, 3])
def test_cholesky_whitener_matches_the_symmetric_one(k):
    # L^{-1} is S^{-1/2} up to a rotation, which the second pass carries
    # through and the colour L undoes
    panel = gen_panel(_factor_spec(K=k, seed=10_001)).returns
    cfg = CleanConfig(demean=False)
    got = clean_covariance(panel, cfg)
    want = symmetric_clean(panel, cfg)
    assert got.k_hat == want.k_hat == k
    np.testing.assert_allclose(got.spectrum.eigenvalues,
                               want.spectrum.eigenvalues, rtol=1e-9)
    np.testing.assert_allclose(got.clipped_spectrum, want.clipped_spectrum,
                               rtol=1e-9)
    np.testing.assert_allclose(got.denoised, want.denoised, rtol=0.0,
                               atol=1e-11 * np.abs(want.denoised).max())


def test_clean_covariance_whitens_small_noise_eigenvalues_unfloored(monkeypatch):
    # the rho=0.8 noise scatter has eigenvalues below half their mean; at
    # the certificate they are whitened as they are, and the result is a
    # covariance with the sample variances on its diagonal
    panel = gen_panel(FactorModelSpec(m=20, N=300, K=1, rho=0.8, nu=0.5,
                                      factor_snr=6.0, seed=8)).returns
    noise = toeplitzify(tyler(panel).values)
    noise *= 20 / np.trace(noise)
    eigvals = np.linalg.eigvalsh(noise)
    assert eigvals[0] < 0.5 * eigvals.mean()
    report = clean_covariance(panel, CleanConfig(demean=False))
    assert "warnings" not in report.to_dict()
    sigma = report.denoised
    np.testing.assert_array_equal(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0.0
    np.testing.assert_allclose(np.diag(sigma),
                               np.var(panel, axis=1, ddof=1), rtol=1e-12)
    # a certificate at half the mean fails, and the refusal names the
    # smallest eigenvalue relative to the mean
    monkeypatch.setattr(denoise, "_CERTIFICATE", 0.5)
    with pytest.raises(DegenerateDataError,
                       match=f"{eigvals[0] / eigvals.mean():.3e} of their"):
        clean_covariance(panel, CleanConfig(demean=False))


def test_clean_covariance_whitens_a_first_pass_below_the_certificate():
    # two near-duplicate assets put the first-pass estimate's smallest
    # eigenvalue below 1e-10 of the mean, but rectification never lowers
    # it and here lifts it far above the certificate
    rng = np.random.default_rng(0)
    panel = rng.standard_normal((40, 252))
    panel[1] = panel[0] + 1e-5 * rng.standard_normal(252)
    report = clean_covariance(panel, CleanConfig(demean=False))
    first = np.linalg.eigvalsh(report.robust_scatter.values)
    assert first[0] < 1e-10 * first.mean()
    assert np.linalg.eigvalsh(report.denoised).min() > 0.0


@pytest.mark.parametrize("k", [0, 3])
def test_clean_covariance_second_pass_is_one_sweep(monkeypatch, k):
    # pass 2 re-sweeps pass 1's panel from pass 1's estimate, so a single
    # sweep certifies it; by affine equivariance the whitened result is
    # Tyler's estimate of the whitened panel, which is never formed
    panel = gen_panel(FactorModelSpec(m=40, N=400, K=k, rho=0.8, nu=0.5,
                                      factor_snr=10.0, seed=k)).returns
    sweeps, passes = [], []
    step = robust._tyler_step
    monkeypatch.setattr(robust, "_tyler_step",
                        lambda *args: sweeps.append(1) or step(*args))

    def counted(work, *args, **kw):
        before = len(sweeps)
        fit = tyler(work, *args, **kw)
        passes.append((work, kw.get("start"), before, fit))
        return fit

    monkeypatch.setattr(denoise, "tyler", counted)
    report = clean_covariance(panel, CleanConfig(demean=False))
    assert len(passes) == 2
    (work1, _, _, first), (work2, start, before_pass2, _) = passes
    assert work2 is work1
    assert start is first.values
    assert len(sweeps) - before_pass2 == 1
    noise = toeplitzify(first.values)
    whitener = np.linalg.inv(np.linalg.cholesky(noise * (40 / np.trace(noise))))
    want = np.linalg.eigvalsh(tyler(whitener @ panel).values)[::-1]
    np.testing.assert_allclose(report.spectrum.eigenvalues, want, rtol=1e-6)


def test_clean_covariance_needs_tall_panel():
    rng = np.random.default_rng(22)
    with pytest.raises(ParameterError, match="need more observations than "
                       "assets, got m=50, N=50"):
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
    assert "warnings" not in d


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
