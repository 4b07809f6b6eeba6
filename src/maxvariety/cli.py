"""Command-line entry points.

Subcommands: ``synth`` (draw a synthetic panel), ``clean`` (run the
covariance cleaning pipeline on a returns CSV), ``allocate`` (compute
maximum-variety weights), ``backtest`` (rolling backtest over a price CSV),
and ``mc-order`` (Monte Carlo tally of selected model orders).

Exit codes: 0 success, 1 usage or configuration error, 2 data/ingestion
error, 3 numerical failure.  An ``--out`` that is, or lies below, an
existing file is refused before any input is read.  Every output file is
written to a temporary name and renamed into place, so partial outputs are
never left behind.
Identical inputs give byte-identical outputs; ``synth`` and ``mc-order``,
the only subcommands that draw random numbers, take them from ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .allocation import OptimizerConfig, optimize_variety, variety_ratio
from .backtest import (ESTIMATORS, BacktestConfig, BacktestResult,
                       load_prices, run_backtest)
from .denoise import (CleanConfig, clean_covariance, mp_upper_bound,
                      save_eigenvalue_histogram)
from .errors import (IngestionError, MaxVarietyError, NumericalError,
                     ParameterError, UsageError)
from .market_model import FactorModelSpec, gen_panel
from .panels import load_returns_csv, save_returns_csv
# ``tyler`` is unused here but stays bound: the benchmark's trace hooks
# ``maxvariety.cli.tyler`` and its tests require every hook target to exist.
from .robust import (ScatterMatrix, TylerConfig, save_scatter_csv, scm,
                     tyler)  # noqa: F401

# The JSON value types each field annotation accepts.  json.loads gives
# exact built-in types, so matching the type exactly keeps true and false
# (bool is a subclass of int) out of the numeric fields.
_JSON_TYPES = {"int": ((int,), "an integer"),
               "float": ((int, float), "a number"),
               "bool": ((bool,), "true or false"),
               "str": ((str,), "a string"),
               "str | None": ((str, type(None)), "a string or null")}


def _field_types(cls, nested=()) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(cls)
            if f.name not in nested}


# Each config section's keys and their annotated types; a nested config is
# a section of its own.
_SECTION_KEYS = {
    "synth": _field_types(FactorModelSpec),
    "tyler": _field_types(TylerConfig),
    "clean": _field_types(CleanConfig, nested=("tyler",)),
    "optimizer": _field_types(OptimizerConfig),
    "backtest": _field_types(BacktestConfig, nested=("clean", "optimizer")),
    "mc_order": {"trials": "int"},
}


def _load_config(path) -> dict:
    """Parse and validate the optional JSON config file."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for section, payload in data.items():
        if section not in _SECTION_KEYS:
            raise UsageError(
                f"config file {path}: unknown section {section!r}")
        if not isinstance(payload, dict):
            raise UsageError(
                f"config file {path}: section {section!r} must be an object")
        types = _SECTION_KEYS[section]
        for key, value in payload.items():
            if key not in types:
                raise UsageError(
                    f"config file {path}: unknown key {key!r} "
                    f"in section {section!r}")
            accepted, expected = _JSON_TYPES[types[key]]
            if type(value) not in accepted:
                raise UsageError(
                    f"config file {path}: key {key!r} in section "
                    f"{section!r} must be {expected}, got {value!r}")
    return data


def _merged(config: dict, section: str, overrides: dict) -> dict:
    body = dict(config.get(section, {}))
    body.update({k: v for k, v in overrides.items() if v is not None})
    return body


def _atomic_via(path: Path, writer) -> None:
    """Run ``writer(tmp_path)`` and rename the result into place.

    A failure to write or rename raises UsageError naming ``path``.
    """
    tmp = Path(str(path) + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _atomic_write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_via(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _check_out(out: Path) -> None:
    """Refuse an output directory that cannot be made, before any work.

    ``out``, or its nearest existing ancestor, must be a directory.  The
    check creates nothing; other failures (permissions, a full disk) still
    surface when the outputs are written.
    """
    for path in (out, *out.parents):
        if os.path.exists(path):
            if not os.path.isdir(path):
                raise UsageError(
                    f"cannot create output directory {out}: {path} is not "
                    f"a directory")
            return


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"cannot create output directory {out}: {exc}") from exc
    return out


def _tyler_config(config: dict, args) -> TylerConfig:
    overrides = {"max_iter": getattr(args, "max_iter", None),
                 "tol": getattr(args, "tol", None)}
    return TylerConfig(**_merged(config, "tyler", overrides))


def _clean_config(config: dict, args) -> CleanConfig:
    overrides = {"demean": getattr(args, "demean", None),
                 "eigen_floor": getattr(args, "eigen_floor", None)}
    return CleanConfig(tyler=_tyler_config(config, args),
                       **_merged(config, "clean", overrides))


def _optimizer_config(config: dict) -> OptimizerConfig:
    return OptimizerConfig(**config.get("optimizer", {}))


def _model_spec(config: dict, args) -> FactorModelSpec:
    overrides = {"m": args.m, "N": args.N, "K": args.K, "rho": args.rho,
                 "nu": args.nu, "factor_snr": args.factor_snr,
                 "seed": args.seed}
    body = _merged(config, "synth", overrides)
    missing = {"m", "N"} - set(body)
    if missing:
        raise UsageError(
            f"synthetic spec needs {sorted(missing)} (flag or config)")
    return FactorModelSpec(**body)


def cmd_synth(args) -> None:
    """Draw a synthetic panel; write returns.csv and truth.json."""
    config = _load_config(args.config)
    spec = _model_spec(config, args)
    panel = gen_panel(spec)
    out = _out_dir(args)
    returns_panel = panel.to_returns_panel()
    _atomic_via(out / "returns.csv",
                lambda tmp: save_returns_csv(returns_panel, tmp))
    truth = {
        "spec": dataclasses.asdict(spec),
        "true_scatter": panel.true_scatter.tolist(),
        "true_loadings": panel.true_loadings.tolist(),
        "textures": panel.textures.tolist(),
        "factors": panel.factors.tolist(),
    }
    _atomic_write_json(out / "truth.json", truth)
    print(f"wrote {out / 'returns.csv'} and {out / 'truth.json'} "
          f"(m={spec.m}, N={spec.N}, K={spec.K})")


def cmd_clean(args) -> None:
    """Clean a returns CSV; write report.json and spectrum files."""
    config = _load_config(args.config)
    clean_cfg = _clean_config(config, args)
    panel = load_returns_csv(args.input)
    report = clean_covariance(panel.values, clean_cfg)
    out = _out_dir(args)
    _atomic_write_json(out / "report.json", report.to_dict())
    denoised = ScatterMatrix(report.denoised,
                             normalization="covariance_scale")
    _atomic_via(out / "denoised.csv",
                lambda tmp: save_scatter_csv(denoised, tmp))
    _atomic_via(out / "spectrum_histogram.csv",
                lambda tmp: save_eigenvalue_histogram(
                    report.spectrum.eigenvalues, tmp))
    print(f"k_hat={report.k_hat} lambda_bar={report.lambda_bar:.6f} "
          f"threshold={report.threshold:.6f} c={report.ratio_c:.4f} "
          f"({len(report.warnings)} warning(s))")


def cmd_allocate(args) -> None:
    """Allocate from a returns CSV; write weights.csv and allocation.json."""
    config = _load_config(args.config)
    opt_cfg = _optimizer_config(config)
    clean_cfg = _clean_config(config, args)
    panel = load_returns_csv(args.input)
    k_hat = None
    if args.estimator == "rmt_tyler_whitened":
        report = clean_covariance(panel.values, clean_cfg)
        sigma = report.denoised
        k_hat = report.k_hat
    else:
        sigma = scm(panel.values, demean=clean_cfg.demean).values
    result = optimize_variety(sigma, opt_cfg)
    out = _out_dir(args)

    def write_weights(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["asset", "weight"])
            for label, weight in zip(panel.labels, result.weights.weights):
                writer.writerow([label, repr(float(weight))])

    _atomic_via(out / "weights.csv", write_weights)
    payload = {
        "estimator": args.estimator,
        "k_hat": k_hat,
        "variety_ratio": result.variety_ratio,
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "weights": {label: float(w) for label, w
                    in zip(panel.labels, result.weights.weights)},
    }
    _atomic_write_json(out / "allocation.json", payload)
    print(f"variety_ratio={result.variety_ratio:.6f} "
          f"iterations={result.iterations} "
          f"kkt_residual={result.kkt_residual:.3e}")


def _write_backtest_csvs(out: Path, results: dict[str, BacktestResult]) -> None:
    """weights per estimator; wealth and turnover aligned across estimators."""
    names = list(results)
    first = results[names[0]]
    for name, result in results.items():
        suffix = f"_{name}" if len(results) > 1 else ""

        def write_weights(tmp, result=result):
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["Date"] + result.labels)
                for i, date in enumerate(result.rebalance_dates):
                    writer.writerow(
                        [date] + [repr(float(v)) for v in result.weights[i]])

        _atomic_via(out / f"weights{suffix}.csv", write_weights)

    def write_aligned(tmp, attr, dates, extra=()):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Date"] + names + [label for label, _ in extra])
            columns = ([getattr(results[name], attr) for name in names]
                       + [col for _, col in extra])
            for i, date in enumerate(dates):
                writer.writerow(
                    [date] + [repr(float(col[i])) for col in columns])

    benchmark = ()
    if first.benchmark_label is not None:
        benchmark = ((first.benchmark_label, first.benchmark_wealth),)
    _atomic_via(out / "wealth.csv",
                lambda tmp: write_aligned(tmp, "wealth", first.wealth_dates,
                                          benchmark))
    _atomic_via(out / "turnover.csv",
                lambda tmp: write_aligned(tmp, "turnover",
                                          first.rebalance_dates))


def cmd_backtest(args) -> None:
    """Backtest a price CSV; write result.json, weights, wealth, turnover."""
    config = _load_config(args.config)
    clean_cfg = _clean_config(config, args)
    opt_cfg = _optimizer_config(config)
    overrides = {"window_days": args.window_days,
                 "rebalance_days": args.rebalance_days,
                 "estimator": args.estimator,
                 "annualization_days": args.annualization_days,
                 "benchmark": args.benchmark}
    body = _merged(config, "backtest", overrides)
    base_cfg = BacktestConfig(clean=clean_cfg, optimizer=opt_cfg, **body)

    panel = load_prices(args.prices, missing_policy=args.missing_policy)
    estimators = list(ESTIMATORS) if args.compare else [base_cfg.estimator]
    results = {}
    for name in estimators:
        cfg = dataclasses.replace(base_cfg, estimator=name)
        results[name] = run_backtest(panel, cfg)

    out = _out_dir(args)
    payload = {
        "config": {
            "window_days": base_cfg.window_days,
            "rebalance_days": base_cfg.rebalance_days,
            "annualization_days": base_cfg.annualization_days,
            "estimators": estimators,
        },
        "results": {name: result.to_dict()
                    for name, result in results.items()},
        "fill_counts": panel.fill_counts,
    }
    _atomic_write_json(out / "result.json", payload)
    _write_backtest_csvs(out, results)
    def summary_line(name, stats):
        ratio = ("undefined" if stats.return_over_vol is None
                 else f"{stats.return_over_vol:.4f}")
        print(f"{name}: return={stats.annualized_return:.4%} "
              f"vol={stats.annualized_vol:.4%} ratio={ratio} "
              f"max_drawdown={stats.max_drawdown:.4%}")

    for name, result in results.items():
        summary_line(name, result.summary)
    first = results[estimators[0]]
    if first.benchmark_label is not None:
        summary_line(f"benchmark {first.benchmark_label}",
                     first.benchmark_summary)


def _order_counts(spec: FactorModelSpec, clean_cfg: CleanConfig) -> tuple[int, int, int]:
    """Model orders selected on one panel by SCM, raw Tyler, and the pipeline."""
    panel = gen_panel(spec)
    returns = panel.returns
    lam = mp_upper_bound(spec.m / spec.N)

    cov = scm(returns, demean=clean_cfg.demean).values
    cov_eigs = np.linalg.eigvalsh(cov)
    scm_k = int(np.count_nonzero(cov_eigs / cov_eigs.mean() > lam))

    # the pipeline's first pass is the raw Tyler estimate, so reuse it
    report = clean_covariance(returns, clean_cfg)
    raw_eigs = np.linalg.eigvalsh(report.robust_scatter.values)
    tyler_k = int(np.count_nonzero(raw_eigs > lam))
    return scm_k, tyler_k, report.k_hat


def cmd_mc_order(args) -> None:
    """Tally selected model orders over seeded trials; write a CSV table."""
    config = _load_config(args.config)
    clean_cfg = _clean_config(config, args)
    spec = _model_spec(config, args)
    trials = args.trials
    if trials is None:
        trials = config.get("mc_order", {}).get("trials")
    if trials is None:
        raise UsageError("mc-order needs --trials (or config mc_order.trials)")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")

    triples = [_order_counts(dataclasses.replace(spec, seed=spec.seed + i),
                             clean_cfg)
               for i in range(trials)]

    columns = ("scm", "tyler_raw", "tyler_whitened")
    top = max(max(triple) for triple in triples)
    counts = np.zeros((top + 1, 3), dtype=int)
    for triple in triples:
        for j, k in enumerate(triple):
            counts[k, j] += 1

    out = _out_dir(args)

    def write_table(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k_hat"] + list(columns))
            for k in range(top + 1):
                writer.writerow([k] + [int(c) for c in counts[k]])

    _atomic_via(out / "order_frequencies.csv", write_table)
    print(f"trials={trials} (seeds {spec.seed}..{spec.seed + trials - 1})")
    for j, name in enumerate(columns):
        mode = int(np.argmax(counts[:, j]))
        share = counts[mode, j] / trials
        print(f"  {name}: mode k_hat={mode} ({share:.0%} of trials)")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _add_synth_flags(sub) -> None:
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--m", type=int, help="asset count")
    sub.add_argument("--N", type=int, help="observation count")
    sub.add_argument("--K", type=int, help="true factor count")
    sub.add_argument("--rho", type=float, help="noise scatter decay in [0,1)")
    sub.add_argument("--nu", type=float, help="texture shape (tail weight)")
    sub.add_argument("--factor-snr", type=float, dest="factor_snr",
                     help="loading column norm")


def _add_clean_flags(sub) -> None:
    sub.add_argument("--demean", action=argparse.BooleanOptionalAction,
                     default=None, help="subtract per-asset window means")
    sub.add_argument("--tol", type=float, help="fixed-point tolerance")
    sub.add_argument("--max-iter", type=int, dest="max_iter",
                     help="fixed-point iteration cap")
    sub.add_argument("--eigen-floor", type=float, dest="eigen_floor",
                     help="relative eigenvalue floor before inversion")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxvariety",
                     description="Robust covariance cleaning and "
                                 "maximum-variety allocation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", parents=[common],
                            help="draw a synthetic return panel")
    _add_synth_flags(synth)
    synth.set_defaults(func=cmd_synth)

    clean = subs.add_parser("clean", parents=[common],
                            help="run the covariance cleaning pipeline")
    clean.add_argument("--input", required=True, help="returns CSV")
    _add_clean_flags(clean)
    clean.set_defaults(func=cmd_clean)

    allocate = subs.add_parser("allocate", parents=[common],
                               help="compute maximum-variety weights")
    allocate.add_argument("--input", required=True, help="returns CSV")
    allocate.add_argument("--estimator", choices=list(ESTIMATORS),
                          default="rmt_tyler_whitened")
    _add_clean_flags(allocate)
    allocate.set_defaults(func=cmd_allocate)

    backtest = subs.add_parser("backtest", parents=[common],
                               help="rolling backtest over a price CSV")
    backtest.add_argument("--prices", required=True, help="price CSV")
    backtest.add_argument("--estimator", choices=list(ESTIMATORS))
    backtest.add_argument("--compare", action="store_true",
                          help="run every estimator on one schedule")
    backtest.add_argument("--window-days", type=int, dest="window_days")
    backtest.add_argument("--rebalance-days", type=int, dest="rebalance_days")
    backtest.add_argument("--annualization-days", type=int,
                          dest="annualization_days")
    backtest.add_argument("--missing-policy", dest="missing_policy",
                          choices=["error", "forward_fill"], default="error")
    backtest.add_argument("--benchmark",
                          help="price column to report alongside the "
                               "portfolio but never allocate")
    _add_clean_flags(backtest)
    backtest.set_defaults(func=cmd_backtest)

    mc = subs.add_parser("mc-order", parents=[common],
                         help="Monte Carlo tally of selected model orders")
    mc.add_argument("--trials", type=int)
    _add_synth_flags(mc)
    _add_clean_flags(mc)
    mc.set_defaults(func=cmd_mc_order)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(Path(args.out))
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IngestionError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MaxVarietyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
