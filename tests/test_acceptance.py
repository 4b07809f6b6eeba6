"""Acceptance gate: one test per required behavior, each printing a single
ACCEPTANCE line (visible with ``pytest -s``) before asserting, so the
printed verdicts and the pytest verdicts always agree."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from maxvariety import (CleanConfig, FactorModelSpec, clean_covariance,
                        clip_spectrum, eigen_spectrum, fixed_point_residual,
                        gen_panel, maximize_variety, mp_upper_bound,
                        optimize_variety, perf_stats, rolling_schedule,
                        toeplitzify, tyler, variety_ratio)
from oracles import brute_force_vr
from maxvariety.cli import main

FIXTURE = Path(__file__).parent / "data" / "prices_fixture.csv"


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {label}{extra}: "
          f"{'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def test_acceptance_1_bulk_edge_value():
    value = mp_upper_bound(0.1)
    ok = abs(value - 1.7325) <= 1e-4
    assert _verdict(1, "bulk edge at c=0.1 equals 1.7325 within 1e-4", ok,
                    f"got {value:.10f}")


def test_acceptance_2_order_selection_monte_carlo():
    started = time.monotonic()
    cfg = CleanConfig(demean=False)
    detect_hits = 0
    noise_hits = 0
    for seed in range(100):
        spec = FactorModelSpec(m=100, N=1000, K=3, rho=0.8, nu=0.5,
                               factor_snr=10.0, seed=seed)
        if clean_covariance(gen_panel(spec).returns, cfg).k_hat == 3:
            detect_hits += 1
    for seed in range(100):
        spec = FactorModelSpec(m=100, N=1000, K=0, rho=0.8, nu=0.5,
                               factor_snr=0.0, seed=seed)
        if clean_covariance(gen_panel(spec).returns, cfg).k_hat == 0:
            noise_hits += 1
    elapsed = time.monotonic() - started
    ok = detect_hits >= 90 and noise_hits >= 90 and elapsed < 600.0
    assert _verdict(
        2, "order selection: k_hat=3 and k_hat=0 each in >=90/100 trials",
        ok, f"detect {detect_hits}/100, noise-only {noise_hits}/100, "
            f"{elapsed:.0f}s"), (
        f"detection rate {detect_hits}/100 and false-alarm-free rate "
        f"{noise_hits}/100 must both reach 90/100 within 600s "
        f"(took {elapsed:.0f}s)")


def test_acceptance_3_fixed_point_residual_and_scale_invariance():
    rng = np.random.default_rng(0)
    worst_residual = 0.0
    worst_scale_dev = 0.0
    for _ in range(20):
        m = int(rng.integers(5, 101))
        spec = FactorModelSpec(m=m, N=10 * m, K=0,
                               rho=float(rng.uniform(0.0, 0.9)),
                               nu=float(rng.uniform(0.4, 3.0)),
                               factor_snr=0.0,
                               seed=int(rng.integers(0, 2 ** 31)))
        panel = gen_panel(spec).returns
        fit = tyler(panel)
        worst_residual = max(worst_residual,
                             fixed_point_residual(panel, fit))
        scales = rng.uniform(1e-3, 1e3, size=panel.shape[1])
        rescaled = tyler(panel * scales[None, :])
        worst_scale_dev = max(worst_scale_dev,
                              float(np.abs(fit.values
                                           - rescaled.values).max()))
    ok = worst_residual < 1e-6 and worst_scale_dev < 1e-10
    assert _verdict(
        3, "fixed point residual < 1e-6 and per-sample scale "
           "invariance < 1e-10 on 20 panels",
        ok, f"max residual {worst_residual:.2e}, "
            f"max scale deviation {worst_scale_dev:.2e}")


def test_acceptance_4_rectified_error_shrinks_with_size():
    medians = []
    for m, n in ((50, 500), (100, 1000), (200, 2000)):
        errors = []
        for trial in range(10):
            spec = FactorModelSpec(m=m, N=n, K=0, rho=0.8, nu=0.5,
                                   factor_snr=0.0, seed=trial)
            panel = gen_panel(spec)
            target = panel.true_scatter * m / np.trace(panel.true_scatter)
            rectified = toeplitzify(tyler(panel.returns).values)
            errors.append(np.linalg.norm(rectified - target, 2))
        medians.append(float(np.median(errors)))
    ok = medians[0] > medians[1] > medians[2]
    assert _verdict(
        4, "median rectified-scatter error strictly decreases over "
           "(50,500)->(100,1000)->(200,2000)",
        ok, "medians " + ", ".join(f"{v:.4f}" for v in medians))


def test_acceptance_5_diagonal_averaging_projection():
    rng = np.random.default_rng(5)
    idempotent = True
    constant = True
    for _ in range(50):
        m = int(rng.integers(2, 40))
        a = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-2, 3)
        a = 0.5 * (a + a.T)
        once = toeplitzify(a, biased=False)
        if not np.array_equal(once, toeplitzify(once, biased=False)):
            idempotent = False
        for out in (once, toeplitzify(a)):
            for lag in range(1, m):
                if np.ptp(np.diagonal(out, offset=lag)) != 0.0:
                    constant = False
    ok = idempotent and constant
    assert _verdict(
        5, "diagonal averaging is exactly idempotent with exactly "
           "constant diagonals on 50 random symmetric matrices",
        ok, f"idempotent={idempotent}, constant={constant}")


def test_acceptance_6_eigenvalue_clipping():
    rng = np.random.default_rng(6)
    trace_ok = True
    top_ok = True
    for _ in range(50):
        m = int(rng.integers(3, 40))
        eigs = np.sort(rng.uniform(0.05, 20.0, size=m))[::-1]
        k = int(rng.integers(0, m))
        clipped = clip_spectrum(eigs, k)
        if abs(clipped.sum() - eigs.sum()) > 1e-8:
            trace_ok = False
        if not np.array_equal(clipped[:k], eigs[:k]):
            top_ok = False
    example = clip_spectrum(np.array([5.0, 1.0, 0.5, 0.5]), k=1)
    example_ok = np.array_equal(example,
                                [5.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])
    ok = trace_ok and top_ok and example_ok
    assert _verdict(
        6, "clipping preserves trace within 1e-8 and kept eigenvalues "
           "exactly; [5,1,0.5,0.5] with k=1 -> [5,2/3,2/3,2/3]",
        ok, f"trace={trace_ok}, top={top_ok}, example={example_ok}")


def test_acceptance_7_optimizer_against_grid():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(20):
        b = rng.standard_normal((3, 3))
        sigma = b @ b.T + 0.5 * np.eye(3)
        scales = rng.uniform(0.3, 3.0, size=3)
        sigma = sigma * np.outer(scales, scales)
        smart = optimize_variety(sigma).variety_ratio
        grid = variety_ratio(brute_force_vr(sigma, step=0.001).weights,
                             sigma)
        worst_gap = max(worst_gap, abs(smart - grid))
    grid_ok = worst_gap <= 1e-3

    equal = maximize_variety(np.eye(5)).weights
    identity_ok = np.abs(equal - 0.2).max() <= 1e-6

    b = np.random.default_rng(77).standard_normal((4, 4))
    sigma = b @ b.T + 0.5 * np.eye(4)
    base = maximize_variety(sigma).weights
    base_vr = variety_ratio(base, sigma)
    scale_ok = True
    for alpha in (0.01, 1.0, 100.0):
        if abs(variety_ratio(base, alpha * sigma) - base_vr) > 1e-9:
            scale_ok = False
        shifted = maximize_variety(alpha * sigma).weights
        if np.abs(shifted - base).max() > 1e-6:
            scale_ok = False

    ok = grid_ok and identity_ok and scale_ok
    assert _verdict(
        7, "optimizer matches 0.001-grid ratio within 1e-3, equal weights "
           "on identity within 1e-6, scale invariant for alpha in "
           "{0.01,1,100}",
        ok, f"max grid gap {worst_gap:.2e}, identity={identity_ok}, "
            f"scale={scale_ok}")


def test_acceptance_8_backtest_determinism_and_schedule(tmp_path):
    outputs = ("result.json", "wealth.csv", "turnover.csv",
               "weights_scm.csv", "weights_rmt_tyler_whitened.csv")
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["backtest", "--prices", str(FIXTURE), "--compare",
                     "--window-days", "40", "--rebalance-days", "10",
                     "--out", str(out)])
        assert code == 0
        runs.append({f: (out / f).read_bytes() for f in outputs})
    identical = runs[0] == runs[1]

    result = json.loads(runs[0]["result.json"].decode())
    turnovers = [r["turnover"] for res in result["results"].values()
                 for r in res["rebalances"]]
    bounded = all(0.0 <= v <= 2.0 for v in turnovers)

    rng = np.random.default_rng(8)
    tiling = True
    for _ in range(200):
        window = int(rng.integers(1, 80))
        rebalance = int(rng.integers(1, 40))
        t = window + rebalance + int(rng.integers(0, 300))
        schedule = rolling_schedule(t, window, rebalance)
        if schedule[0][1] != window:
            tiling = False
        for fit_start, decision, hold_end in schedule:
            if (decision - fit_start != window
                    or hold_end - decision != rebalance or hold_end > t):
                tiling = False
        for prev, nxt in zip(schedule, schedule[1:]):
            if nxt[1] != prev[2]:
                tiling = False
        if t - schedule[-1][2] >= rebalance:
            tiling = False

    ok = identical and bounded and tiling
    assert _verdict(
        8, "backtest byte-identical across runs, turnover in [0,2], "
           "schedule tiles the history",
        ok, f"identical={identical}, bounded={bounded}, tiling={tiling}")


def test_acceptance_9_performance_statistics():
    drawdown = perf_stats([100.0, 120.0, 60.0]).max_drawdown
    dd_ok = drawdown == pytest.approx(0.5, abs=1e-12)
    monotone = perf_stats([100.0, 101.0, 105.0, 140.0]).max_drawdown
    zero_ok = monotone == 0.0
    ok = dd_ok and zero_ok
    assert _verdict(
        9, "drawdown 50% on 100->120->60 and zero on monotone wealth",
        ok, f"drawdown={drawdown}, monotone={monotone}")
