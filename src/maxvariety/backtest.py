"""Rolling-window backtest of covariance-driven allocations.

A price panel (read by ``panels.load_prices``) is turned into arithmetic
returns, and a fixed-length estimation window slides over the return history.  At
each rebalance the configured covariance estimator is fitted on the window,
weights that maximize the variety ratio are computed, and the portfolio is
held (buy and hold, positions drifting with returns) until the next
rebalance.  Wealth starts at 100 on the first rebalance date.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .allocation import OptimizerConfig, _as_weights, optimize_variety
from .denoise import CleanConfig, clean_covariance
from .errors import DegenerateDataError, MaxVarietyError, ParameterError
from .panels import PricePanel, to_returns
from .robust import _config, _count, _floats, _real, scm

ESTIMATORS = ("scm", "rmt_tyler_whitened")


def rolling_schedule(n_returns: int, window_days: int,
                     rebalance_days: int) -> list[tuple[int, int, int]]:
    """Rebalance points over a return history of length ``n_returns``.

    Each entry is ``(fit_start, decision, hold_end)``: the estimator sees
    return indices ``[fit_start, decision)`` and the weights are held over
    ``[decision, hold_end)``.  Only full holding periods are scheduled.
    """
    _count("window_days", window_days, 1)
    _count("rebalance_days", rebalance_days, 1)
    _count("n_returns", n_returns, 0)
    schedule = []
    decision = window_days
    while decision + rebalance_days <= n_returns:
        schedule.append((decision - window_days, decision,
                         decision + rebalance_days))
        decision += rebalance_days
    if not schedule:
        raise ParameterError(
            f"history of {n_returns} returns is too short: need at least "
            f"{window_days + rebalance_days} "
            f"(window {window_days} plus one holding period "
            f"of {rebalance_days})")
    return schedule


def turnover(previous, current) -> float:
    """L1 distance between two ``WeightVector``-checked vectors; in [0, 2]."""
    prev, cur = _as_weights(previous), _as_weights(current)
    if prev.shape != cur.shape:
        raise ParameterError(
            f"weight vectors must share one shape, got {prev.shape} "
            f"and {cur.shape}")
    return float(np.abs(cur - prev).sum())


@dataclass
class PerfStats:
    """Headline performance numbers of a wealth curve."""

    annualized_return: float
    annualized_vol: float
    return_over_vol: float | None
    max_drawdown: float


def perf_stats(wealth, annualization_days: float = 252) -> PerfStats:
    """Annualized return and volatility, their ratio, and max drawdown.

    The ratio is ``None`` (serialized as null) when volatility is zero.  A
    series that is not finite and positive raises DegenerateDataError, as
    does a return, volatility or ratio that overflows (naming it);
    ``annualization_days`` below 1 or past the float range, ParameterError.
    """
    series = _floats(wealth, "wealth series")
    if series.ndim != 1 or series.size < 2:
        raise ParameterError("wealth series needs at least two points")
    days = _real("annualization_days", annualization_days, 1.0,
                 rule="be >= 1 and finite", closed=True)
    if not np.all((series > 0.0) & (series < np.inf)):
        raise DegenerateDataError("wealth series is not finite and positive")
    periods = series.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        growth = series[-1] / series[0]
        ann_return = growth ** (days / periods) - 1.0
        daily = series[1:] / series[:-1] - 1.0
        ann_vol = (float(np.std(daily, ddof=1)) * np.sqrt(days)
                   if daily.size >= 2 else 0.0)
        ratio = ann_return / ann_vol if ann_vol > 0.0 else None
    for name, value in (("annualized return", ann_return),
                        ("annualized volatility", ann_vol),
                        ("return over volatility", ratio or 0.0)):
        if not np.isfinite(value):
            raise DegenerateDataError(f"{name} of the wealth series is not "
                                      f"finite: {float(value)!r}")
    drawdown = float(np.max(1.0 - series / np.maximum.accumulate(series)))
    return PerfStats(annualized_return=float(ann_return),
                     annualized_vol=float(ann_vol),
                     return_over_vol=ratio,
                     max_drawdown=drawdown)


@dataclass(frozen=True)
class BacktestConfig:
    """Settings of a rolling backtest run.

    ``benchmark`` names a price column that is tracked and reported next to
    the portfolio but never allocated.
    """

    window_days: int = 252
    rebalance_days: int = 20
    estimator: str = "scm"
    annualization_days: float = 252
    benchmark: str | None = None
    clean: CleanConfig = CleanConfig()
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        _config("clean", self.clean, CleanConfig, nested=True)
        _config("optimizer", self.optimizer, OptimizerConfig, nested=True)
        _count("window_days", self.window_days, 2)
        _count("rebalance_days", self.rebalance_days, 1)
        _real("annualization_days", self.annualization_days, 1.0,
              rule="be >= 1 and finite", closed=True)
        if self.estimator not in ESTIMATORS:
            raise ParameterError(
                f"unknown estimator {self.estimator!r}; "
                f"choose from {ESTIMATORS}")


@dataclass
class BacktestResult:
    """Weights, wealth, turnover, and summary stats of one backtest."""

    labels: list[str]
    rebalance_dates: list[str]
    weights: np.ndarray          # one row per rebalance
    turnover: np.ndarray         # one entry per rebalance
    k_hat: list[int | None]      # model order per rebalance (None for scm)
    variety_ratios: np.ndarray   # in-sample ratio at each rebalance
    wealth_dates: list[str]
    wealth: np.ndarray
    summary: PerfStats
    benchmark_label: str | None = None
    benchmark_wealth: np.ndarray | None = None
    benchmark_summary: PerfStats | None = None

    def to_dict(self) -> dict:
        payload = {
            "summary": asdict(self.summary),
            "rebalances": [
                {
                    "date": self.rebalance_dates[i],
                    "turnover": float(self.turnover[i]),
                    "k_hat": self.k_hat[i],
                    "variety_ratio": float(self.variety_ratios[i]),
                }
                for i in range(len(self.rebalance_dates))
            ],
        }
        if self.benchmark_label is not None:
            payload["benchmark"] = {
                "label": self.benchmark_label,
                "summary": asdict(self.benchmark_summary),
            }
        return payload


def _estimate_covariance(window: np.ndarray, config: BacktestConfig):
    """Fit the configured estimator on one window: (covariance, k_hat)."""
    if config.estimator == "scm":
        return scm(window, demean=config.clean.demean).values, None
    report = clean_covariance(window, config.clean)
    return report.denoised, report.k_hat


def _split_benchmark(panel: PricePanel, label: str | None):
    """Separate the benchmark price row, if any, from the allocatable panel."""
    if label is None:
        return panel, None
    if label not in panel.labels:
        raise ParameterError(
            f"benchmark {label!r} is not a column of the price panel")
    keep = [i for i, name in enumerate(panel.labels) if name != label]
    if not keep:
        raise ParameterError(
            "benchmark column is the only asset; nothing to allocate")
    assets = PricePanel(dates=list(panel.dates),
                        prices=panel.prices[keep],
                        labels=[panel.labels[i] for i in keep],
                        fill_counts=dict(panel.fill_counts))
    return assets, panel.prices[panel.labels.index(label)]


def run_backtest(panel: PricePanel,
                 config: BacktestConfig | None = None) -> BacktestResult:
    """Run the rolling estimate-allocate-hold loop over a price panel.

    A package error raised by the estimator or the optimizer propagates as
    its own class, its message prefixed with ``rebalance <date>:``.  Wealth,
    the portfolio's or the benchmark's, that hits zero or overflows raises
    DegenerateDataError.
    """
    cfg = _config("config", config, BacktestConfig)
    panel, benchmark_prices = _split_benchmark(panel, cfg.benchmark)
    returns_panel = to_returns(panel)
    returns = returns_panel.values
    m, n_returns = returns.shape
    if cfg.estimator == "rmt_tyler_whitened" and cfg.window_days <= m:
        raise ParameterError(
            f"estimator {cfg.estimator!r} needs window_days > asset count, "
            f"got window {cfg.window_days} for {m} assets")
    schedule = rolling_schedule(n_returns, cfg.window_days, cfg.rebalance_days)

    weights_rows = []
    turnovers = []
    k_hats = []
    ratios = []
    rebalance_dates = []
    wealth_values = [100.0]

    previous_weights = np.zeros(m)
    for fit_start, decision, hold_end in schedule:
        date = panel.dates[decision].isoformat()
        window = returns[:, fit_start:decision]
        try:
            sigma, order = _estimate_covariance(window, cfg)
            result = optimize_variety(sigma, cfg.optimizer)
        except MaxVarietyError as exc:
            # same class, so the CLI exit code is unchanged
            exc.args = (f"rebalance {date}: {exc}",)
            raise
        target = result.weights.weights

        weights_rows.append(target)
        turnovers.append(turnover(previous_weights, target))
        k_hats.append(order)
        ratios.append(result.variety_ratio)
        rebalance_dates.append(date)
        previous_weights = target

        positions = wealth_values[-1] * target
        # wealth that overflows is refused below, as wealth that hits zero
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(decision, hold_end):
                positions = positions * (1.0 + returns[:, h])
                wealth_values.append(float(positions.sum()))
    # the holding periods tile [first decision, last hold end), so wealth
    # is valued on every price date of this one span
    span = slice(schedule[0][1], schedule[-1][2] + 1)

    wealth = np.asarray(wealth_values)
    if np.any(wealth <= 0.0):
        raise DegenerateDataError(
            "portfolio wealth hit zero; inputs are inconsistent with "
            "arithmetic-return accounting")
    if not np.isfinite(wealth).all():
        raise DegenerateDataError("portfolio wealth overflowed a float")
    summary = perf_stats(wealth, cfg.annualization_days)

    benchmark_wealth = None
    benchmark_summary = None
    if benchmark_prices is not None:
        track = benchmark_prices[span]
        # divide first so the path starts at exactly 100.0; wealth that
        # overflows or hits zero is refused by perf_stats
        with np.errstate(over="ignore"):
            benchmark_wealth = 100.0 * (track / track[0])
        benchmark_summary = perf_stats(benchmark_wealth,
                                       cfg.annualization_days)

    return BacktestResult(labels=list(panel.labels),
                          rebalance_dates=rebalance_dates,
                          weights=np.vstack(weights_rows),
                          turnover=np.asarray(turnovers),
                          k_hat=k_hats,
                          variety_ratios=np.asarray(ratios),
                          wealth_dates=[day.isoformat()
                                        for day in panel.dates[span]],
                          wealth=wealth,
                          summary=summary,
                          benchmark_label=cfg.benchmark,
                          benchmark_wealth=benchmark_wealth,
                          benchmark_summary=benchmark_summary)
