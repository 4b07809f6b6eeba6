"""The benchmark's workloads: their inputs, one op, and its checks.

Each workload is a closed loop with one caller: the next op starts when the
last returns.  ``synthesize`` writes the inputs, ``run`` is the timed op,
and ``check`` inspects what the op produced, outside the timed interval.
``order_hit_share`` counts the orders chosen in ops 1 to ``hit_ops``, a
set of inputs that does not depend on how many ops fit into a run.  A
workload whose ops cycle over ``cycle`` inputs runs whole cycles, so that
every run does the same mix of work.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import functools
import inspect
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import maxvariety as mv
from maxvariety import allocation, backtest, cli

KKT_TOL = mv.OptimizerConfig().kkt_tol
SIMPLEX_TOL = 1e-8
# Seed of the inputs that are the same in every run: the block of
# order-null trials order_hit_share counts, and the panels and price paths
# the allocate and backtest ops cycle over.  The optimizer's iteration count
# follows its input, so when those inputs were drawn from the run's seed,
# the mean op cost moved by 13-25% between seeds, more than any run length
# that fits the time budget could average out.  The run's seed sets where
# in the cycle the ops start.
FIXED_SEED = 10_000


def data_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run seeded with ``seed``.

    Always at least 10 000, off the seeds 0-99 the acceptance tests use.
    """
    return 10_000 + 100_000 * seed + index


@dataclass
class Outcome:
    """What one op's checks found."""

    problems: list[str] = field(default_factory=list)
    k_hats: list[int] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    fingerprint: bytes = b""


def _project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    pivot = np.flatnonzero(u - excess / np.arange(1, v.size + 1) > 0.0)[-1]
    return np.maximum(v - excess[pivot] / (pivot + 1.0), 0.0)


def kkt_residual(weights: np.ndarray, sigma: np.ndarray) -> float:
    """Fixed-point defect of projected gradient ascent on the log variety
    ratio, recomputed here from the weights and the covariance alone."""
    vols = np.sqrt(np.diag(sigma))
    sig_w = sigma @ weights
    grad = vols / (weights @ vols) - sig_w / (weights @ sig_w)
    return float(np.abs(_project(weights + grad) - weights).max())


def _check_weights(weights, where, problems) -> None:
    if weights.min() < -SIMPLEX_TOL:
        problems.append(f"{where}: weight {weights.min()!r} below -1e-8")
    if abs(weights.sum() - 1.0) > SIMPLEX_TOL:
        problems.append(f"{where}: weights sum to {weights.sum()!r}")


def _check_kkt(weights, sigma, where, problems) -> None:
    residual = kkt_residual(weights, sigma)
    if not residual <= KKT_TOL:
        problems.append(f"{where}: KKT residual {residual:.3e} "
                        f"above {KKT_TOL:.1e}")


def _check_cleaned(panel, cov, where, problems) -> None:
    if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():
        problems.append(f"{where}: cleaned covariance is not symmetric")
    variances = np.var(panel, axis=1, ddof=1)
    if not np.allclose(np.diag(cov), variances, rtol=1e-9, atol=0.0):
        problems.append(f"{where}: cleaned diagonal differs from the "
                        f"sample variances")


def _read_rows(path: Path) -> np.ndarray:
    """Numeric cells of a CSV with one header row and one label column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def _fingerprint(out: Path) -> bytes:
    return b"".join(p.name.encode() + b"\0" + p.read_bytes()
                    for p in sorted(out.iterdir()))


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _Capture:
    """Keeps the first argument and the result of each call to the wrapped
    module attributes, so checks can see what the CLI computed."""

    def __init__(self, targets):
        self._calls: list[tuple[str, object, object]] = []
        for module, attr in targets:
            setattr(module, attr, self._wrap(attr, getattr(module, attr)))

    def _wrap(self, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._calls.append((attr, args[0], result))
            return result
        return wrapper

    def take(self) -> dict[str, list[tuple[object, object]]]:
        """Calls since the last take, by attribute name."""
        calls, self._calls = self._calls, []
        out: dict[str, list[tuple[object, object]]] = {}
        for attr, arg, result in calls:
            out.setdefault(attr, []).append((arg, result))
        return out


def _count_calls_into(module) -> list[int]:
    """Count calls to every function of ``module``, under every name the
    package binds it to.  Returns the one-element counter."""
    counter = [0]

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, namespace in list(sys.modules.items()):
        if name != "maxvariety" and not name.startswith("maxvariety."):
            continue
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                setattr(namespace, attr, wrap(obj))
    return counter


class OrderNull:
    """One noise-only Monte Carlo trial: ``maxvariety mc-order --trials 1
    --no-demean``, which counts the SCM order and the raw Tyler order and
    runs the cleaning pipeline.

    The first ``hit_ops`` trials of every run are one fixed block of
    panels, so that ``order_hit_share`` counts the same panels in every
    run; later trials draw their panels from the run's seed.
    """

    name = "order-null"
    planted_k = 0
    cycle = 1
    hit_ops = 40

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.capture = _Capture([(cli, "clean_covariance")])
        self.allocation_calls = _count_calls_into(allocation)

    def synthesize(self) -> None:
        """Nothing to write: each op draws its own panel."""

    def trial_seed(self, index: int) -> int:
        if 1 <= index <= self.hit_ops:
            return FIXED_SEED + index
        return data_seed(self.seed, index)

    def run(self, index: int, out: Path) -> int:
        return _cli(["mc-order", "--trials", "1",
                     "--m", "100", "--N", "1000", "--K", "0",
                     "--rho", "0.8", "--nu", "0.5",
                     "--seed", str(self.trial_seed(index)),
                     "--no-demean", "--out", str(out)])

    def check(self, index: int, out: Path, exit_code: int) -> Outcome:
        calls = self.capture.take()
        allocation_calls = self.allocation_calls[0]
        self.allocation_calls[0] = 0
        if exit_code != 0:
            return Outcome([f"trial {index}: exit code {exit_code}"])
        outcome = Outcome()
        where = f"trial {index}"
        if allocation_calls:
            outcome.problems.append(
                f"{where}: {allocation_calls} call(s) into allocation")
        with open(out / "order_frequencies.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        chosen = [int(row["k_hat"]) for row in rows
                  if row["tyler_whitened"] == "1"]
        cleans = calls.get("clean_covariance", [])
        if len(cleans) != 1 or chosen != [cleans[0][1].k_hat]:
            outcome.problems.append(
                f"{where}: {len(cleans)} clean(s) seen; the table's "
                f"whitened order {chosen} disagrees with them")
        for panel, report in cleans:
            _check_cleaned(panel, report.denoised, where, outcome.problems)
        outcome.k_hats.extend(chosen)
        outcome.fingerprint = _fingerprint(out)
        return outcome


class AllocateSpiked:
    """``maxvariety allocate --no-demean`` on a returns CSV with three
    strong factors, through ``cli.main`` into a fresh output directory.

    The ops cycle over four fixed panels.  The ascent's iteration count
    has a heavy tail across panels (from ~150 to ~15 000 at one panel in
    ten).
    """

    name = "allocate-spiked"
    planted_k = 3
    cycle = 4  # panels
    hit_ops = cycle  # order_hit_share counts each panel once

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.returns_csvs = [workdir / f"returns-{j}.csv"
                             for j in range(self.cycle)]
        self.capture = _Capture([(cli, "clean_covariance"),
                                 (cli, "optimize_variety")])

    def synthesize(self) -> None:
        for j, path in enumerate(self.returns_csvs):
            spec = mv.FactorModelSpec(m=100, N=1000, K=3, rho=0.8, nu=0.5,
                                      factor_snr=10.0,
                                      seed=FIXED_SEED + 1 + j)
            mv.save_returns_csv(mv.gen_panel(spec).to_returns_panel(), path)

    def run(self, index: int, out: Path) -> int:
        return _cli(["allocate",
                     "--input",
                     str(self.returns_csvs[(self.seed + index) % self.cycle]),
                     "--no-demean", "--out", str(out)])

    def check(self, index: int, out: Path, exit_code: int) -> Outcome:
        calls = self.capture.take()
        if exit_code != 0:
            return Outcome([f"exit code {exit_code}"])
        outcome = Outcome()
        payload = json.loads((out / "allocation.json").read_text())
        weights = _read_rows(out / "weights.csv")[:, 0]
        _check_weights(weights, "weights.csv", outcome.problems)
        optimized = calls.get("optimize_variety", [])
        if len(optimized) != 1:
            outcome.problems.append(
                f"{len(optimized)} optimizer calls seen, expected 1")
        for sigma, _result in optimized:
            _check_kkt(weights, sigma, "weights.csv", outcome.problems)
        for panel, report in calls.get("clean_covariance", []):
            _check_cleaned(panel, report.denoised, "allocate",
                           outcome.problems)
        outcome.k_hats.append(payload["k_hat"])
        outcome.ratios.append(payload["variety_ratio"])
        outcome.fingerprint = _fingerprint(out)
        return outcome


class BacktestRolling:
    """``maxvariety backtest --compare`` (SCM and the cleaned estimator) on
    a synthetic one-factor price CSV; the ops cycle over two fixed sample
    paths of the same market."""

    name = "backtest-rolling"
    planted_k = 1
    assets = 40
    window_days = 252
    rebalance_days = 21
    rebalances = 2
    cycle = 2  # price paths
    hit_ops = cycle  # order_hit_share counts each cleaned window once

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.price_csvs = [workdir / f"prices-{j}.csv"
                           for j in range(self.cycle)]
        self.capture = _Capture([(backtest, "clean_covariance"),
                                 (backtest, "optimize_variety")])

    def synthesize(self) -> None:
        loadings = mv.gen_panel(mv.FactorModelSpec(
            m=self.assets, N=1, K=1, factor_snr=1.5,
            seed=FIXED_SEED)).true_loadings
        n = self.window_days + self.rebalances * self.rebalance_days
        first = datetime.date(2020, 1, 1)
        dates = [(first + datetime.timedelta(days=t)).isoformat()
                 for t in range(n + 1)]
        labels = [f"A{i:02d}" for i in range(self.assets)]
        for j, path in enumerate(self.price_csvs):
            seed = FIXED_SEED + 1 + j
            noise = mv.gen_panel(mv.FactorModelSpec(
                m=self.assets, N=n, K=0, rho=0.5, nu=1.0, seed=seed)).returns
            scores = np.random.default_rng([seed, 1]).standard_normal((1, n))
            returns = loadings @ scores + noise
            returns *= 0.01 / returns.std()
            prices = 100.0 * np.cumprod(
                np.hstack([np.ones((self.assets, 1)), 1.0 + returns]), axis=1)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["Date"] + labels)
                for t, date in enumerate(dates):
                    writer.writerow([date] + [repr(float(p))
                                              for p in prices[:, t]])

    def run(self, index: int, out: Path) -> int:
        return _cli(["backtest",
                     "--prices",
                     str(self.price_csvs[(self.seed + index) % self.cycle]),
                     "--compare",
                     "--window-days", str(self.window_days),
                     "--rebalance-days", str(self.rebalance_days),
                     "--out", str(out)])

    def check(self, index: int, out: Path, exit_code: int) -> Outcome:
        calls = self.capture.take()
        if exit_code != 0:
            return Outcome([f"exit code {exit_code}"])
        outcome = Outcome()
        payload = json.loads((out / "result.json").read_text())
        for result in payload["results"].values():
            for rebalance in result["rebalances"]:
                outcome.ratios.append(rebalance["variety_ratio"])
                if rebalance["k_hat"] is not None:
                    outcome.k_hats.append(rebalance["k_hat"])
        rows = 0
        for path in sorted(out.glob("weights*.csv")):
            for i, weights in enumerate(_read_rows(path)):
                rows += 1
                _check_weights(weights, f"{path.name} row {i + 2}",
                               outcome.problems)
        optimized = calls.get("optimize_variety", [])
        if len(optimized) != rows or rows != len(outcome.ratios):
            outcome.problems.append(
                f"{len(optimized)} optimizer calls, {rows} weight rows and "
                f"{len(outcome.ratios)} reported ratios disagree")
        for sigma, result in optimized:
            _check_kkt(result.weights.weights, sigma, "rebalance",
                       outcome.problems)
        for window, report in calls.get("clean_covariance", []):
            _check_cleaned(window, report.denoised, "rebalance",
                           outcome.problems)
        outcome.fingerprint = _fingerprint(out)
        return outcome


WORKLOADS = {w.name: w for w in (OrderNull, AllocateSpiked, BacktestRolling)}
