"""Price ingestion, the rolling schedule, performance stats, and the
backtest loop."""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from maxvariety import (BacktestConfig, DegenerateDataError, IngestionError,
                        ParameterError, PricePanel, load_prices, perf_stats,
                        rolling_schedule, run_backtest, to_returns, turnover)


def _write_prices(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _synthetic_prices(m, t, seed, drift=0.0005, vol=0.01):
    rng = np.random.default_rng(seed)
    steps = drift + vol * rng.standard_normal((m, t - 1))
    prices = 100.0 * np.cumprod(np.hstack([np.ones((m, 1)), 1.0 + steps]),
                                axis=1)
    start = datetime.date(2020, 1, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(t)]
    labels = [f"A{i:03d}" for i in range(m)]
    return PricePanel(dates=dates, prices=prices, labels=labels)


# ---------------------------------------------------------------- ingestion


def test_load_prices_happy_path(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA", "BBB"],
                  [["2024-01-02", 100.0, 50.0],
                   ["2024-01-03", 101.0, 49.5]])
    panel = load_prices(path)
    assert panel.labels == ["AAA", "BBB"]
    assert panel.dates == [datetime.date(2024, 1, 2),
                           datetime.date(2024, 1, 3)]
    np.testing.assert_array_equal(panel.prices, [[100.0, 101.0],
                                                 [50.0, 49.5]])
    assert panel.fill_counts == {"AAA": 0, "BBB": 0}


def test_load_prices_missing_cell_is_error(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA", "BBB"],
                  [["2024-01-02", 100.0, 50.0],
                   ["2024-01-03", "", 49.5]])
    with pytest.raises(IngestionError, match=r"row 3, column 'AAA'"):
        load_prices(path)


def test_load_prices_forward_fill(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA", "BBB"],
                  [["2024-01-02", 100.0, 50.0],
                   ["2024-01-03", "", 49.5],
                   ["2024-01-04", 102.0, ""]])
    panel = load_prices(path, missing_policy="forward_fill")
    np.testing.assert_array_equal(panel.prices, [[100.0, 100.0, 102.0],
                                                 [50.0, 49.5, 49.5]])
    assert panel.fill_counts == {"AAA": 1, "BBB": 1}
    with pytest.raises(ParameterError, match="unknown missing policy 'bogus'"):
        load_prices(path, missing_policy="bogus")


def test_load_prices_leading_gap_always_fails(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA"],
                  [["2024-01-02", ""], ["2024-01-03", 100.0]])
    with pytest.raises(IngestionError, match="missing price"):
        load_prices(path, missing_policy="forward_fill")


def test_load_prices_rejects_non_increasing_dates(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA"],
                  [["2024-01-03", 100.0], ["2024-01-03", 101.0]])
    with pytest.raises(IngestionError, match="not after"):
        load_prices(path)


def test_load_prices_rejects_bad_number_and_nonpositive(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, ["Date", "AAA"],
                  [["2024-01-02", "abc"]])
    with pytest.raises(IngestionError, match="not a number"):
        load_prices(path)
    _write_prices(path, ["Date", "AAA"],
                  [["2024-01-02", -3.0]])
    with pytest.raises(IngestionError, match="non-positive"):
        load_prices(path)
    for text in ("nan", "inf"):
        _write_prices(path, ["Date", "AAA"],
                      [["2024-01-02", 1.0], ["2024-01-03", text]])
        with pytest.raises(IngestionError,
                           match=f"row 3, column 'AAA': not finite: '{text}'"):
            load_prices(path)


def test_load_prices_rows_numbered_by_file_line(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("Date,AAA\n2024-01-02,1.0\n\n2024-01-03,2.0\n"
                    "2024-01-04,abc\n")
    with pytest.raises(IngestionError,
                       match="row 5, column 'AAA': not a number: 'abc'"):
        load_prices(path)


def test_load_prices_missing_file():
    with pytest.raises(IngestionError):
        load_prices("/nonexistent/prices.csv")


# ---------------------------------------------------------------- returns


def _spoiled_price_panel(spoil):
    prices = 100.0 + np.arange(12.0).reshape(3, 4)
    dates = [datetime.date(2024, 1, d) for d in range(2, 6)]
    labels = ["A", "B", "C"]
    if spoil == "repeated label":
        labels[2] = "A"
    elif spoil == "label array":
        labels = np.array(["A", "B", "A"])
    elif spoil == "text date":
        dates[2] = "2024-01-04"
    elif spoil == "datetime":
        dates[1] = datetime.datetime(2024, 1, 3)
    elif spoil == "reversed":
        dates.reverse()
    elif spoil == "repeated date":
        dates[3] = dates[2]
    elif spoil == "nan":
        prices[1, 2] = np.nan
    else:
        prices[1, 2] = float(spoil)
    return dates, prices, labels


@pytest.mark.parametrize("spoil, error, message", [
    # a benchmark named by a repeated label would drop every column it
    # names from the assets and track only the first; labels given as an
    # array are checked as a list is
    ("repeated label", ParameterError, "^label 'A' names price rows 0 and 2$"),
    ("label array", ParameterError, "names price rows 0 and 2$"),
    # refused where the panel is built, not later by to_returns (a raw
    # AttributeError on a text date) or by a backtest
    ("text date", ParameterError,
     "^date 2 is not a datetime.date: '2024-01-04'$"),
    ("datetime", ParameterError, r"^date 1 is not a datetime.date: "),
    ("reversed", ParameterError,
     r"^date 1 \(2024-01-04\) is not after date 0 \(2024-01-05\)$"),
    ("repeated date", ParameterError,
     r"^date 3 \(2024-01-04\) is not after date 2 \(2024-01-04\)$"),
    ("-1.0", ParameterError,
     r"^price \(asset 1, date 2\) is not positive: -1.0$"),
    ("0.0", ParameterError,
     r"^price \(asset 1, date 2\) is not positive: 0.0$"),
    # built in code, so not an IngestionError (a data-file error)
    ("nan", DegenerateDataError,
     r"^panel entry \(asset 1, observation 2\) is not finite: nan$")])
def test_price_panel_refuses_bad_labels_dates_and_prices(spoil, error,
                                                         message):
    with pytest.raises(error, match=message):
        PricePanel(*_spoiled_price_panel(spoil))


def test_to_returns_fixture():
    panel = PricePanel(dates=[datetime.date(2024, 1, 2),
                              datetime.date(2024, 1, 3),
                              datetime.date(2024, 1, 4)],
                       prices=np.array([[100.0, 110.0, 99.0]]),
                       labels=["AAA"])
    returns = to_returns(panel)
    np.testing.assert_allclose(returns.values, [[0.10, -0.10]])
    assert returns.timestamps == ["2024-01-03", "2024-01-04"]


def test_to_returns_needs_two_dates():
    panel = PricePanel(dates=[datetime.date(2024, 1, 2)],
                       prices=np.array([[100.0]]), labels=["AAA"])
    with pytest.raises(ParameterError):
        to_returns(panel)


# ---------------------------------------------------------------- schedule


def test_rolling_schedule_two_periods():
    got = rolling_schedule(292, 252, 20)
    assert got == [(0, 252, 272), (20, 272, 292)]


def test_rolling_schedule_exactly_one_period():
    assert rolling_schedule(272, 252, 20) == [(0, 252, 272)]


def test_rolling_schedule_too_short():
    with pytest.raises(ParameterError, match="271 returns is too short: "
                       "need at least 272"):
        rolling_schedule(271, 252, 20)


def test_rolling_schedule_tiling_property():
    rng = np.random.default_rng(40)
    for _ in range(200):
        window = int(rng.integers(1, 60))
        rebalance = int(rng.integers(1, 30))
        extra = int(rng.integers(0, 200))
        t = window + rebalance + extra
        schedule = rolling_schedule(t, window, rebalance)
        # contiguous holding periods of equal length, starting right after
        # the first window, never extending past the history
        assert schedule[0][1] == window
        for fit_start, decision, hold_end in schedule:
            assert decision - fit_start == window
            assert hold_end - decision == rebalance
            assert hold_end <= t
        for prev, nxt in zip(schedule, schedule[1:]):
            assert nxt[1] == prev[2]
        assert t - schedule[-1][2] < rebalance


# ---------------------------------------------------------------- turnover


def test_turnover_fixtures():
    assert turnover([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert turnover([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert turnover([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.2)


def test_turnover_shape_mismatch():
    with pytest.raises(ParameterError):
        turnover([0.5, 0.5], [1.0])


# ---------------------------------------------------------------- stats


def test_perf_stats_drawdown_fixture():
    stats = perf_stats([100.0, 120.0, 60.0])
    assert stats.max_drawdown == pytest.approx(0.5)


def test_perf_stats_monotone_has_zero_drawdown():
    stats = perf_stats([100.0, 101.0, 103.0, 110.0])
    assert stats.max_drawdown == 0.0


def test_perf_stats_annualized_return():
    # 21% over half the annualization span compounds to 46.41%
    stats = perf_stats([100.0, 110.0, 121.0], annualization_days=4)
    assert stats.annualized_return == pytest.approx(0.4641)


def test_perf_stats_flat_series_has_null_ratio():
    stats = perf_stats([100.0, 100.0, 100.0])
    assert stats.annualized_vol == 0.0
    assert stats.return_over_vol is None


def test_perf_stats_ratio_value():
    stats = perf_stats([100.0, 101.0, 100.5, 102.0], annualization_days=252)
    assert stats.return_over_vol == pytest.approx(
        stats.annualized_return / stats.annualized_vol)


def test_perf_stats_rejects_nonpositive_wealth():
    with pytest.raises(DegenerateDataError,
                       match="^wealth series is not finite and positive$"):
        perf_stats([100.0, -5.0, 50.0])


@pytest.mark.parametrize("wealth, named", [
    ([100.0, np.inf], "wealth series is not finite"),
    ([100.0, np.nan, 100.0], "wealth series is not finite"),
    ([100.0, 1e300], "annualized return of the wealth series is not finite"),
    ([100.0, 1e300, 100.0],
     "annualized volatility of the wealth series is not finite"),
    # steady growth whose daily returns differ only by rounding
    ([1.0, 15.5, 15.5 * 15.5 * (1 + 4e-16)],
     "return over volatility of the wealth series is not finite"),
])
def test_perf_stats_refuses_what_is_not_finite(wealth, named):
    # raised before numpy warns: the test configuration makes a warning an
    # error
    with pytest.raises(DegenerateDataError, match=named):
        perf_stats(wealth)


def test_perf_stats_needs_two_points():
    with pytest.raises(ParameterError):
        perf_stats([100.0])


# ---------------------------------------------------------------- backtest


def _small_config(**overrides):
    base = dict(window_days=30, rebalance_days=5, estimator="scm")
    base.update(overrides)
    return BacktestConfig(**base)


def test_run_backtest_single_asset_holds_everything():
    panel = _synthetic_prices(1, 61, seed=41)
    result = run_backtest(panel, _small_config())
    assert np.all(result.weights == 1.0)
    assert result.turnover[0] == 1.0
    assert np.all(result.turnover[1:] == 0.0)
    # wealth follows the asset exactly from the first decision date
    start = 30 + 1  # decision index in return space -> price index
    relative = panel.prices[0, start - 1:] / panel.prices[0, start - 1]
    np.testing.assert_allclose(result.wealth, 100.0 * relative)


@pytest.mark.parametrize(("scales", "message"), [
    # two jumps of 1e300 in the last holding period (price dates 56-60),
    # on an asset priced near 1e-298, which no estimation window sees
    ((1e-300, 1e300, 1e300), "portfolio wealth overflowed a float"),
    # a fall there from about 100 to 1e-298: the return rounds to -1
    ((1.0, 1e-300, 1.0), "portfolio wealth hit zero"),
])
def test_run_backtest_refuses_wealth_that_leaves_the_float_range(scales,
                                                                message):
    panel = _synthetic_prices(1, 61, seed=41)
    panel.prices *= scales[0]
    panel.prices[:, 57:] *= scales[1]
    panel.prices[:, 59:] *= scales[2]
    with pytest.raises(DegenerateDataError, match=message):
        run_backtest(panel, _small_config())


def test_run_backtest_constant_prices_rejected_by_robust_estimator():
    t = 61
    start = datetime.date(2021, 1, 4)
    panel = PricePanel(dates=[start + datetime.timedelta(days=i)
                              for i in range(t)],
                       prices=np.full((3, t), 50.0),
                       labels=["A", "B", "C"])
    with pytest.raises(DegenerateDataError, match="zero sample variance"):
        run_backtest(panel, _small_config(estimator="rmt_tyler_whitened",
                                          window_days=30))


@pytest.mark.parametrize("estimator, cause", [
    ("scm", "asset 0 has non-positive variance"),
    ("rmt_tyler_whitened", "asset 0 has zero sample variance"),
])
def test_run_backtest_failure_names_its_rebalance(estimator, cause):
    # asset 0 stops moving at price 40, so returns 40-69, the window of
    # the rebalance on date 70, are the first window with no move in it
    panel = _synthetic_prices(3, 91, seed=47)
    panel.prices[0, 40:] = panel.prices[0, 40]
    date = panel.dates[70].isoformat()
    with pytest.raises(DegenerateDataError,
                       match=f"^rebalance {date}: {cause}"):
        run_backtest(panel, _small_config(estimator=estimator))


def test_run_backtest_deterministic():
    panel = _synthetic_prices(4, 80, seed=42)
    cfg = _small_config()
    first = run_backtest(panel, cfg)
    second = run_backtest(panel, cfg)
    np.testing.assert_array_equal(first.weights, second.weights)
    np.testing.assert_array_equal(first.wealth, second.wealth)
    assert first.to_dict() == second.to_dict()


def test_run_backtest_invariants():
    panel = _synthetic_prices(5, 100, seed=43)
    result = run_backtest(panel, _small_config())
    n_rebalances = len(result.rebalance_dates)
    assert result.weights.shape == (n_rebalances, 5)
    assert np.all(result.turnover >= 0.0)
    assert np.all(result.turnover <= 2.0 + 1e-12)
    assert result.turnover[0] == pytest.approx(1.0)
    np.testing.assert_allclose(result.weights.sum(axis=1), 1.0, atol=1e-8)
    assert np.all(result.wealth > 0.0)
    assert len(result.wealth) == len(result.wealth_dates)
    assert np.all(np.asarray(result.variety_ratios) >= 1.0 - 1e-9)
    assert result.k_hat == [None] * n_rebalances


def test_run_backtest_robust_estimator_reports_orders():
    panel = _synthetic_prices(4, 90, seed=44)
    cfg = _small_config(estimator="rmt_tyler_whitened")
    result = run_backtest(panel, cfg)
    assert all(isinstance(k, int) for k in result.k_hat)
    assert all(0 <= k <= 4 for k in result.k_hat)


def test_run_backtest_robust_estimator_needs_wide_window():
    panel = _synthetic_prices(40, 90, seed=45)
    cfg = _small_config(estimator="rmt_tyler_whitened", window_days=30)
    with pytest.raises(ParameterError,
                       match="needs window_days > asset count"):
        run_backtest(panel, cfg)


def test_run_backtest_history_too_short():
    panel = _synthetic_prices(2, 20, seed=46)
    with pytest.raises(ParameterError, match="history of 19 returns is too "
                       "short"):
        run_backtest(panel, _small_config())


def test_backtest_config_validation():
    with pytest.raises(ParameterError):
        BacktestConfig(estimator="magic")
    with pytest.raises(ParameterError):
        BacktestConfig(window_days=1)
    with pytest.raises(ParameterError):
        BacktestConfig(rebalance_days=0)


def test_run_backtest_benchmark_tracked_not_allocated():
    panel = _synthetic_prices(4, 80, seed=48)
    cfg = _small_config(benchmark="A003")
    result = run_backtest(panel, cfg)
    assert result.labels == ["A000", "A001", "A002"]
    assert result.weights.shape[1] == 3
    assert result.benchmark_label == "A003"
    assert result.benchmark_wealth[0] == 100.0
    # benchmark wealth is the raw price path renormalized at the first
    # decision date; it stops where the schedule stops
    assert len(result.benchmark_wealth) == len(result.wealth)
    track = panel.prices[3, 30:30 + len(result.wealth)]
    np.testing.assert_allclose(result.benchmark_wealth,
                               100.0 * track / track[0])
    payload = result.to_dict()
    assert payload["benchmark"]["label"] == "A003"
    assert "summary" in payload["benchmark"]


def test_run_backtest_refuses_benchmark_wealth_that_overflows():
    # from the first decision date the benchmark rises from 1e-200 to
    # 1e200, so its wealth overflows; refused before numpy warns (the test
    # configuration makes a warning an error)
    panel = _synthetic_prices(4, 12, seed=50)
    prices = panel.prices.copy()
    prices[3, 4:] = np.geomspace(1e-200, 1e200, 8)
    panel = PricePanel(dates=panel.dates, prices=prices, labels=panel.labels)
    cfg = _small_config(window_days=4, rebalance_days=1, benchmark="A003")
    with pytest.raises(DegenerateDataError,
                       match="wealth series is not finite"):
        run_backtest(panel, cfg)


def test_run_backtest_unknown_benchmark_rejected():
    panel = _synthetic_prices(3, 80, seed=49)
    with pytest.raises(ParameterError, match="benchmark"):
        run_backtest(panel, _small_config(benchmark="GHOST"))


def test_run_backtest_wealth_dates_align_with_prices():
    panel = _synthetic_prices(3, 70, seed=47)
    result = run_backtest(panel, _small_config())
    # return index 30 spans price dates 30 -> 31, so the first decision
    # (and the 100.0 starting wealth) sits on price date 30
    assert result.wealth_dates[0] == panel.dates[30].isoformat()
    assert result.rebalance_dates[0] == panel.dates[30].isoformat()
    assert result.wealth[0] == 100.0
    assert result.wealth_dates[1] == panel.dates[31].isoformat()
