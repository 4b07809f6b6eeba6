"""No generated input escapes as anything but a MaxVarietyError.

CSV texts go to both loaders, finite panels to the estimators and the
optimizer, covariances from 0 x 0 up to the optimizer and the ratio, and
price panels built in code to the backtest; each call may return or raise
``MaxVarietyError``, and any other exception fails the property.  The same
covariances go to the square-matrix and spectrum tools, to ``perf_stats``
and, with panels of their size or one more and some all-zero
observations, to ``fixed_point_residual``; those calls must also return
finite numbers and raise no numpy warning.  Price files with a price
ratio that overflows, or an ``annualization_days`` past the float range,
go through ``cli.main``, which must exit with the refusal's code.  Text,
a ragged nesting or a complex number given where an array is taken is
refused with a ParameterError.
"""

from __future__ import annotations

import dataclasses
import datetime
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import maxvariety.cli as cli
from maxvariety import (BacktestConfig, CleanConfig, MaxVarietyError,
                        ParameterError, PricePanel, ReturnsPanel,
                        ScatterMatrix, WeightVector, clean_covariance,
                        clip_spectrum, eigen_spectrum, fixed_point_residual,
                        inv_sqrt, load_prices, load_returns_csv,
                        optimize_variety, perf_stats, run_backtest,
                        save_eigenvalue_histogram, scm, select_order,
                        to_returns, toeplitzify, tyler, variety_ratio)

# cells that break a table: non-numbers, non-finite or out-of-range
# numbers, quotes, NUL, BOM, CR, bad dates and arbitrary short text
_BAD_CELLS = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "", " ", "-5", "0",
    "1e-300", " 3 ", '"', '"0.1"', '"a,b"', '""', "\x00", "\ufeff", "\r",
    "\r\n", "abc", "0x1p3", "1_000", "2020-13-01", "2020-02-30",
    "2020-01-10", "20200105", "t"]) | st.text(max_size=4)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    """A table both loaders accept, then up to three spoils: a bad cell,
    a short or long row, or a stray line end."""
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    rows = [[draw(st.sampled_from(["t", "Date", "", '"Date"']))]
            + [f"A{i}" for i in range(width - 1)]]
    for row in range(draw(st.integers(0, 6))):
        rows.append([f"2020-01-{row + 10}"]
                    + [draw(st.sampled_from(["0.5", "1.25", "2e-2", "100"]))
                       for _ in range(width - 1)])
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        spoil = draw(st.sampled_from(["cell", "cell", "short", "long"]))
        if spoil == "short":
            del row[-1:]
        elif spoil == "long":
            row.append(draw(st.sampled_from(["0.5", ""])))
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
    end = draw(_LINE_ENDS)
    text = end.join(",".join(row) for row in rows)
    text += draw(st.sampled_from(["", end, end + end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
def test_csv_loaders_return_or_raise_maxvariety_errors(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for load in (load_returns_csv, load_prices):
        try:
            load(path)
        except MaxVarietyError:
            pass


@st.composite
def _panels(draw):
    """Finite m x N panels, m 1-6 and N 1-14, scaled from 1e-300 to 1e300,
    with a few cells set to 0, +-1e-300, +-1e+-160 or +-1e300."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 14) | st.integers(m + 1, 14))
    if draw(st.booleans()):
        panel = draw(arrays(float, (m, n), elements=st.floats(-10.0, 10.0)))
    else:  # generic entries: hypothesis favours 0 and repeats
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        panel = rng.standard_normal((m, n))
    panel *= draw(st.sampled_from([1.0, 1.0, 1e-300, 1e-160, 1e160, 1e300]))
    for _ in range(draw(st.integers(0, 3))):
        panel[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = (
            draw(st.sampled_from([0.0, 1e-300, -1e-300, 1e-160, -1e-160,
                                  1e160, -1e160, 1e300, -1e300])))
    return panel


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100)
@given(panel=_panels())
def test_estimators_and_optimizer_return_or_raise_maxvariety_errors(panel):
    calls = [lambda: clean_covariance(panel, CleanConfig(demean=True)),
             lambda: clean_covariance(panel, CleanConfig(demean=False)),
             lambda: tyler(panel),
             lambda: optimize_variety(scm(panel).values)]
    for call in calls:
        try:
            call()
        except MaxVarietyError:
            pass


# entries that over- or underflow a product, or are not finite
_ODD_ENTRIES = st.sampled_from([0.0, -1.0, 1e-300, 1e-160, 1e160, 1e300,
                                -1e300, np.inf, np.nan])


@st.composite
def _covariances(draw):
    """m x m matrices, m 0-3: a Gram matrix, scaled, with up to two
    entries (and their mirrors, unless the draw leaves it asymmetric)
    set to an odd value."""
    m = draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    root = rng.standard_normal((m, m + 1))
    cov = root @ root.T
    cov *= draw(st.sampled_from([1.0, 1.0, 1e-300, 1e300]))
    mirror = draw(st.booleans())
    for _ in range(draw(st.integers(0, 2)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        cov[i, j] = draw(_ODD_ENTRIES)
        if mirror:
            cov[j, i] = cov[i, j]
    return cov


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100)
@given(cov=_covariances())
def test_optimizer_on_small_covariances_raises_maxvariety_errors(cov):
    m = cov.shape[0]
    calls = [lambda: optimize_variety(cov),
             lambda: variety_ratio(np.full(m, 1.0 / max(m, 1)), cov)]
    for call in calls:
        try:
            call()
        except MaxVarietyError:
            pass


def _jump(draw, prices) -> None:
    """Perhaps make one asset's price jump from 1e-200 to 1e200 between two
    consecutive dates: both are valid prices, their ratio overflows."""
    m, t = prices.shape
    if m and t > 1 and draw(st.booleans()):
        day = draw(st.integers(0, t - 2))
        prices[draw(st.integers(0, m - 1)), day:day + 2] = 1e-200, 1e200


@st.composite
def _price_panels(draw):
    """Price panels built in code: m 0-4 rows of positive prices over 0-14
    dates, labels from a small pool that may repeat, dates that may repeat
    or go back, perhaps an overflowing jump, and up to two prices set to
    an odd value."""
    m = draw(st.integers(0, 4))
    t = draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    prices = 100.0 * np.exp(np.cumsum(
        0.05 * rng.standard_normal((m, t)), axis=1))
    _jump(draw, prices)
    for _ in range(draw(st.integers(0, 2)) if m and t else 0):
        prices[draw(st.integers(0, m - 1)), draw(st.integers(0, t - 1))] = (
            draw(_ODD_ENTRIES))
    labels = [draw(st.sampled_from(["A", "B", "C", "D", "E"]))
              for _ in range(m)]
    day = datetime.date(2024, 1, 2)
    dates = []
    for _ in range(t):
        dates.append(day)
        day += datetime.timedelta(days=draw(st.sampled_from([1, 1, 0, -1])))
    return dates, prices, labels


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100)
@given(parts=_price_panels(), window=st.integers(2, 6),
       hold=st.integers(1, 4), estimator=st.sampled_from(
           ["scm", "rmt_tyler_whitened"]),
       benchmark=st.sampled_from([None, "A", "B"]))
def test_backtest_on_built_price_panels_raises_maxvariety_errors(
        parts, window, hold, estimator, benchmark):
    config = BacktestConfig(window_days=window, rebalance_days=hold,
                            estimator=estimator, benchmark=benchmark)
    try:
        panel = PricePanel(*parts)
    except MaxVarietyError:
        return
    for call in (lambda: to_returns(panel),
                 lambda: run_backtest(panel, config)):
        try:
            call()
        except MaxVarietyError:
            pass


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 3), t=st.integers(9, 14), seed=st.integers(0, 2**16),
       data=st.data(), days=st.sampled_from(
           [None, 252, 10**308, 10**309, 10**400]))
def test_backtest_refusals_exit_with_their_codes(tmp_path, capsys, m, t,
                                                 seed, data, days):
    # a price file load_prices accepts, perhaps with an overflowing jump;
    # an annualization_days past the float range reads as inf and is
    # refused first (the config is read before the prices), then the jump,
    # as a data error
    prices = 100.0 * np.exp(np.cumsum(
        0.05 * np.random.default_rng(seed).standard_normal((m, t)), axis=1))
    _jump(data.draw, prices)
    labels = [f"A{i}" for i in range(m)]
    dates = [datetime.date(2024, 1, 2) + datetime.timedelta(days=d)
             for d in range(t)]
    path = tmp_path / "prices.csv"
    path.write_text("".join(
        [",".join(["Date", *labels]) + "\n"]
        + [",".join([day.isoformat(), *map(repr, prices[:, j].tolist())])
           + "\n" for j, day in enumerate(dates)]), encoding="utf-8")
    extra = [] if days is None else ["--annualization-days", str(days)]
    code = cli.main(["backtest", "--prices", str(path), "--window-days",
                     str(m + 3), "--rebalance-days", "2", *extra,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    jumps = np.argwhere((prices.T[:-1] == 1e-200) & (prices.T[1:] == 1e200))
    if days is not None and days > 10**308:
        assert code == 1, err
        assert err == ("error: annualization_days must be >= 1 and finite, "
                       "got inf\n")
    elif jumps.size:
        assert code == 2, err
        day, asset = jumps[0]
        assert err.startswith(f"data error: {dates[day + 1]}, column "
                              f"'A{asset}': return from price 1e-200 to "
                              "1e+200 is not finite")
    elif days == 10**308:  # a float holds it; the annualized return may not
        assert code in (0, 3), err
        assert code == 0 or "annualized return" in err
    else:
        assert code == 0, err


def _finite(result) -> bool:
    """Whether every number in a result (an array, a number, None or a
    dataclass of those) is finite."""
    if result is None:
        return True
    if dataclasses.is_dataclass(result):
        return all(_finite(value) for value in vars(result).values())
    return bool(np.isfinite(np.asarray(result, dtype=float)).all())


def _finite_or_refused(call) -> None:
    try:
        result = call()
    except MaxVarietyError:
        return
    assert _finite(result), result


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cov=_covariances(), k=st.integers(0, 3))
def test_matrix_and_spectrum_tools_return_finite_or_raise_maxvariety_errors(
        tmp_path, cov, k):
    # every numpy warning is an error here, so a call that warns fails too
    diagonal = np.diagonal(cov)
    calls = [lambda: toeplitzify(cov),
             lambda: toeplitzify(cov, biased=False),
             lambda: inv_sqrt(cov),
             lambda: eigen_spectrum(cov),
             lambda: ScatterMatrix(cov),
             lambda: select_order(diagonal, 1.0),
             lambda: select_order(cov, 1.0),
             lambda: clip_spectrum(np.sort(diagonal)[::-1], k),
             lambda: save_eigenvalue_histogram(cov, tmp_path / "h.csv"),
             lambda: perf_stats(cov.ravel()),
             lambda: perf_stats(100.0 + np.abs(diagonal))]
    for call in calls:
        _finite_or_refused(call)


@settings(max_examples=150)
@given(cov=_covariances(), extra=st.integers(0, 1), n=st.integers(1, 8),
       dead=st.lists(st.integers(0, 7), max_size=2),
       seed=st.integers(0, 2**16))
def test_fixed_point_residual_returns_finite_or_raises_maxvariety_errors(
        cov, extra, n, dead, seed):
    # a panel with as many assets as the scatter has rows, or one more,
    # and up to two all-zero observations
    panel = np.random.default_rng(seed).standard_normal(
        (cov.shape[0] + extra, n))
    panel[:, [j for j in dead if j < n]] = 0.0
    _finite_or_refused(lambda: fixed_point_residual(panel, cov))


@pytest.mark.parametrize("value", [
    "abc", [[1.0, 2.0], [3.0]], [1 + 2j, 3.0], np.array([1 + 2j, 3.0])],
    ids=["text", "ragged", "complex", "complex array"])
@pytest.mark.parametrize("call", [
    tyler, scm, clean_covariance, toeplitzify, optimize_variety,
    WeightVector, perf_stats, lambda x: select_order(x, 1.0), ReturnsPanel,
    lambda x: save_eigenvalue_histogram(x, os.devnull)],
    ids=["tyler", "scm", "clean_covariance", "toeplitzify",
         "optimize_variety", "WeightVector", "perf_stats", "select_order",
         "ReturnsPanel", "save_eigenvalue_histogram"])
def test_an_array_argument_that_is_not_real_numbers_is_refused(call, value):
    with pytest.raises(ParameterError, match="must hold real numbers$"):
        call(value)
