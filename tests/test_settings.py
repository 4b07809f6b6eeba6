"""Every scalar setting refuses a value of the wrong type or range with a
ParameterError that names it, and takes numpy scalars as Python ones and a
Fraction as a float; every settings object of the wrong class is refused
naming the argument."""

from __future__ import annotations

import dataclasses
import datetime
import math
from fractions import Fraction

import numpy as np
import pytest

from maxvariety import (BacktestConfig, CleanConfig, FactorModelSpec,
                        OptimizerConfig, ParameterError, PricePanel,
                        TylerConfig, clean_covariance, clip_spectrum,
                        gen_panel, gen_sphere_vector, gen_texture,
                        gen_toeplitz_scatter, mp_upper_bound,
                        optimize_variety, order_threshold, perf_stats,
                        rolling_schedule, run_backtest, select_order,
                        turnover, tyler, variety_ratio)
from maxvariety.cli import main

_PANEL = np.random.default_rng(3).standard_normal((3, 30))
_COV = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 1.5]])


def _prices():
    rng = np.random.default_rng(4)
    steps = 1.0 + 0.01 * rng.standard_normal((3, 39))
    prices = np.cumprod(np.hstack([np.ones((3, 1)), steps]), axis=1)
    start = datetime.date(2020, 1, 1)
    return PricePanel([start + datetime.timedelta(days=i) for i in range(40)],
                      prices, ["A", "B", "C"])


def _spec(name):
    base = dict(m=4, N=6, K=1, rho=0.5, nu=0.5, factor_snr=2.0, seed=3)
    return lambda v: gen_panel(FactorModelSpec(**{**base, name: v})).returns


def _backtest(name):
    base = dict(window_days=10, rebalance_days=5, annualization_days=252)
    return lambda v: run_backtest(_prices(),
                                  BacktestConfig(**{**base, name: v})).wealth


# (setting, its value's run, a valid Python value, its rule: an "integer",
# a "real" number, or a real "below 1")
_SETTINGS = {
    "FactorModelSpec.m": ("m", _spec("m"), 4, "integer"),
    "FactorModelSpec.N": ("N", _spec("N"), 6, "integer"),
    "FactorModelSpec.K": ("K", _spec("K"), 1, "integer"),
    "FactorModelSpec.seed": ("seed", _spec("seed"), 3, "integer"),
    "FactorModelSpec.rho": ("rho", _spec("rho"), 0.5, "below 1"),
    "FactorModelSpec.nu": ("nu", _spec("nu"), 0.5, "real"),
    "FactorModelSpec.factor_snr": ("factor_snr", _spec("factor_snr"), 2.0,
                                   "real"),
    "gen_toeplitz_scatter.m": ("m", lambda v: gen_toeplitz_scatter(v, 0.5),
                               3, "integer"),
    "gen_toeplitz_scatter.rho": ("rho", lambda v: gen_toeplitz_scatter(3, v),
                                 0.5, "below 1"),
    "gen_texture.nu": ("nu", lambda v: gen_texture(
        v, 5, np.random.default_rng(0)), 0.5, "real"),
    "gen_texture.n": ("n", lambda v: gen_texture(
        0.5, v, np.random.default_rng(0)), 5, "integer"),
    "gen_sphere_vector.m": ("m", lambda v: gen_sphere_vector(
        v, np.random.default_rng(0)), 3, "integer"),
    "TylerConfig.max_iter": ("max_iter", lambda v: tyler(
        _PANEL, TylerConfig(max_iter=v)).values, 50, "integer"),
    "TylerConfig.tol": ("tol", lambda v: tyler(
        _PANEL, TylerConfig(tol=v)).values, 1e-6, "real"),
    "OptimizerConfig.kkt_tol": ("kkt_tol", lambda v: optimize_variety(
        _COV, OptimizerConfig(kkt_tol=v)).weights.weights, 1e-5, "real"),
    "BacktestConfig.window_days": ("window_days", _backtest("window_days"),
                                   10, "integer"),
    "BacktestConfig.rebalance_days": ("rebalance_days",
                                      _backtest("rebalance_days"), 5,
                                      "integer"),
    "BacktestConfig.annualization_days": (
        "annualization_days", _backtest("annualization_days"), 252, "real"),
    "perf_stats.annualization_days": (
        "annualization_days", lambda v: dataclasses.astuple(
            perf_stats([100.0, 101.0, 100.5], v)), 252, "real"),
    "rolling_schedule.window_days": (
        "window_days", lambda v: rolling_schedule(50, v, 5), 10, "integer"),
    "rolling_schedule.rebalance_days": (
        "rebalance_days", lambda v: rolling_schedule(50, 10, v), 5,
        "integer"),
    "rolling_schedule.n_returns": (
        "n_returns", lambda v: rolling_schedule(v, 10, 5), 50, "integer"),
    "order_threshold.m": ("m", lambda v: order_threshold(v, 10), 3,
                          "integer"),
    "order_threshold.N": ("N", lambda v: order_threshold(3, v), 10,
                          "integer"),
    "clip_spectrum.k": ("k", lambda v: clip_spectrum(
        np.array([3.0, 2.0, 1.0]), v), 1, "integer"),
    "mp_upper_bound.ratio_c": ("ratio_c", mp_upper_bound, 0.5, "real"),
    "select_order.lambda_bar": ("lambda_bar", lambda v: select_order(
        np.array([3.0, 2.0, 1.0]), v), 1.5, "real"),
}

_BAD = (2.5, "3", True, math.nan, math.inf)


@pytest.mark.parametrize("where, bad", [
    (where, bad) for where, (_, _, _, rule) in _SETTINGS.items()
    for bad in _BAD if not (rule == "real" and bad == 2.5)],
    ids=lambda x: x if isinstance(x, str) else repr(x))
def test_a_setting_of_the_wrong_type_or_range_is_refused(where, bad):
    name, run, _, _ = _SETTINGS[where]
    with pytest.raises(ParameterError, match=f"^{name} must "):
        run(bad)


@pytest.mark.parametrize("where", [
    where for where, (*_, rule) in _SETTINGS.items() if rule != "integer"])
def test_a_real_setting_past_the_float_range_is_refused(where):
    name, run, _, _ = _SETTINGS[where]
    with pytest.raises(ParameterError,
                       match=f"^{name} is too large for a float$"):
        run(10**400)


@pytest.mark.parametrize("where", list(_SETTINGS))
def test_a_numpy_scalar_setting_runs_as_the_python_one(where):
    _, run, value, _ = _SETTINGS[where]
    kind = np.int64 if isinstance(value, int) else np.float64
    np.testing.assert_array_equal(run(kind(value)), run(value))


@pytest.mark.parametrize("where", [
    where for where, (*_, rule) in _SETTINGS.items() if rule != "integer"])
def test_a_fraction_setting_runs_as_the_float(where):
    _, run, value, _ = _SETTINGS[where]
    np.testing.assert_array_equal(run(Fraction(value)), run(value))


def test_demean_must_be_a_bool():
    # a truthy string would run the demeaned pipeline
    with pytest.raises(ParameterError, match="^demean must be a bool"):
        CleanConfig(demean="no")
    assert not CleanConfig(demean=np.False_).demean


def test_a_non_finite_weight_is_refused_naming_its_index():
    with pytest.raises(ParameterError, match="^weight 0 is not finite"):
        variety_ratio([np.nan, 0.5, 0.5], np.eye(3))
    with pytest.raises(ParameterError, match="^weight 1 is not finite"):
        turnover([0.0, 1.0], [0.0, np.inf])
    with pytest.raises(ParameterError, match="^weight 0 is not finite"):
        turnover([np.nan, 1.0], [0.0, 1.0])


def test_trials_below_one_names_the_setting(tmp_path, capsys):
    code = main(["mc-order", "--m", "3", "--N", "10", "--trials", "0",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: trials must be >= 1, got 0")


# (the call, given a settings object, and the name and class it must be)
_CONFIGS = {
    "tyler": (lambda c: tyler(_PANEL, c), "config", "TylerConfig"),
    "clean_covariance": (lambda c: clean_covariance(_PANEL, c), "config",
                         "CleanConfig"),
    "optimize_variety": (lambda c: optimize_variety(_COV, c), "config",
                         "OptimizerConfig"),
    "run_backtest": (lambda c: run_backtest(_prices(), c), "config",
                     "BacktestConfig"),
    "CleanConfig.tyler": (lambda c: CleanConfig(tyler=c), "tyler",
                          "TylerConfig"),
    "BacktestConfig.clean": (lambda c: BacktestConfig(clean=c), "clean",
                             "CleanConfig"),
    "BacktestConfig.optimizer": (lambda c: BacktestConfig(optimizer=c),
                                 "optimizer", "OptimizerConfig"),
}


# a falsy value is no stand-in for the default
_NOT_CONFIGS = {"0": 0, "empty": "", "3": 3,
                "FactorModelSpec": FactorModelSpec(m=2, N=3)}


@pytest.mark.parametrize("bad", list(_NOT_CONFIGS))
@pytest.mark.parametrize("where", list(_CONFIGS))
def test_a_config_of_the_wrong_class_is_refused(where, bad):
    run, name, kind = _CONFIGS[where]
    with pytest.raises(ParameterError, match=f"^{name} must be a {kind}, "):
        run(_NOT_CONFIGS[bad])


@pytest.mark.parametrize("where", [w for w in _CONFIGS if "." in w])
def test_a_nested_config_may_not_be_none(where):
    run, name, kind = _CONFIGS[where]
    with pytest.raises(ParameterError,
                       match=f"^{name} must be a {kind}, got None$"):
        run(None)
