"""Command-line entry points.

Subcommands: ``synth`` (draw a synthetic panel), ``clean`` (run the
covariance cleaning pipeline on a returns CSV), ``allocate`` (compute
maximum-variety weights), ``backtest`` (rolling backtest over a price CSV),
and ``mc-order`` (Monte Carlo tally of selected model orders).

Exit codes: 0 success, 1 usage or configuration error, 2 data/ingestion
error, 3 numerical failure; each ``errors`` class carries its code and the
stderr label ``main`` prints.  Every settings flag is a config key: the
``_SECTIONS`` table names the dataclass behind each config section, and
its fields give the section's keys, their flags and the nested sections.
An ``--out`` that is, or lies below, an existing file is refused before any
input is read.  Every output file is written to a temporary name and
renamed into place, so partial outputs are never left behind.
Identical inputs give byte-identical outputs at a given BLAS thread count,
and ``synth`` and ``backtest`` outputs at any; ``synth`` and ``mc-order``,
the only subcommands that draw random numbers, take them from ``--seed``.

``main`` builds its argument parser once per process, on its first call,
and dispatches each subcommand by name to the ``cmd_*`` function of that
name as it is bound when the call is made.  Only callers that run ``main``
more than once in one process (tests, benchmarks, Python scripts) skip
rebuilding the parser; a shell invocation builds it once either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .allocation import OptimizerConfig, optimize_variety
from .backtest import ESTIMATORS, BacktestConfig, BacktestResult, run_backtest
from .denoise import (CleanConfig, clean_covariance, save_eigenvalue_histogram,
                      select_order)
from .errors import MaxVarietyError, UsageError
from .market_model import FactorModelSpec, gen_panel
from .panels import (MISSING_POLICIES, _float_cells, _write_csv, load_prices,
                     load_returns_csv, save_returns_csv)
# ``tyler`` is unused here but stays bound: the benchmark's trace hooks
# ``maxvariety.cli.tyler`` and its tests require every hook target to exist.
from .robust import TylerConfig, _count, scm, tyler  # noqa: F401

# Per field annotation: the JSON value types it accepts, their description,
# and the argparse keywords of its flag.  json.loads gives exact built-in
# types, so matching the type exactly keeps true and false (bool is a
# subclass of int) out of the numeric fields.
_JSON_TYPES = {
    "int": ((int,), "an integer", {"type": int}),
    "float": ((int, float), "a number", {"type": float}),
    "bool": ((bool,), "true or false",
             {"action": argparse.BooleanOptionalAction}),
    "str": ((str,), "a string", {"type": str}),
    "str | None": ((str, type(None)), "a string or null", {"type": str}),
}

# The dataclass behind each config section.  A field named after a section
# is that section, nested.
_SECTIONS = {"synth": FactorModelSpec, "tyler": TylerConfig,
             "clean": CleanConfig, "optimizer": OptimizerConfig,
             "backtest": BacktestConfig}

# Each config section's keys and their annotated types.
_SECTION_KEYS = {
    **{section: {f.name: f.type for f in dataclasses.fields(cls)
                 if f.name not in _SECTIONS}
       for section, cls in _SECTIONS.items()},
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
    except ValueError as exc:  # an integer past Python's digit limit
        raise UsageError(f"config file {path}: {exc}") from exc
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
            accepted, expected, _ = _JSON_TYPES[types[key]]
            if type(value) not in accepted:
                raise UsageError(
                    f"config file {path}: key {key!r} in section "
                    f"{section!r} must be {expected}, got {value!r}")
            # an integer is kept as written, but must fit a float
            if types[key] == "float":
                try:
                    float(value)
                except OverflowError:
                    raise UsageError(
                        f"config file {path}: key {key!r} in section "
                        f"{section!r} is past the float range") from None
    return data


def _settings(config: dict, section: str, args) -> dict:
    """The config file's ``section``, each key overridden by the flag of the
    same name when that flag was given."""
    body = dict(config.get(section, {}))
    for key in _SECTION_KEYS[section]:
        if getattr(args, key, None) is not None:
            body[key] = getattr(args, key)
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


def _atomic_csv(path: Path, header, rows) -> None:
    _atomic_via(path, lambda tmp: _write_csv(tmp, header, rows))


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


def _build(section: str, config: dict, args):
    """The dataclass of ``section``, built after its nested sections.

    A field with no default that neither a flag nor the config sets is
    refused with a UsageError naming the section and those fields.
    """
    cls = _SECTIONS[section]
    fields = dataclasses.fields(cls)
    nested = {f.name: _build(f.name, config, args)
              for f in fields if f.name in _SECTIONS}
    given = {**nested, **_settings(config, section, args)}
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in given]
    if missing:
        raise UsageError(f"section {section!r} needs {', '.join(missing)} "
                         f"(flag or config)")
    return cls(**given)


def cmd_synth(args) -> None:
    """Draw a synthetic panel; write returns.csv and truth.json."""
    config = _load_config(args.config)
    spec = _build("synth", config, args)
    panel = gen_panel(spec)
    out = _out_dir(args)
    returns_panel = panel.to_returns_panel()
    _atomic_via(out / "returns.csv",
                lambda tmp: save_returns_csv(returns_panel, tmp))
    truth = {f.name: getattr(panel, f.name).tolist()
             for f in dataclasses.fields(panel) if f.name != "returns"}
    truth["spec"] = dataclasses.asdict(spec)
    _atomic_write_json(out / "truth.json", truth)
    print(f"wrote {out / 'returns.csv'} and {out / 'truth.json'} "
          f"(m={spec.m}, N={spec.N}, K={spec.K})")


def cmd_clean(args) -> None:
    """Clean a returns CSV; write report.json and spectrum files."""
    config = _load_config(args.config)
    clean_cfg = _build("clean", config, args)
    panel = load_returns_csv(args.input)
    report = clean_covariance(panel.values, clean_cfg)
    out = _out_dir(args)
    _atomic_write_json(out / "report.json", report.to_dict())
    _atomic_csv(out / "denoised.csv",
                [len(report.denoised), "covariance_scale"],
                map(_float_cells, report.denoised))
    _atomic_via(out / "spectrum_histogram.csv",
                lambda tmp: save_eigenvalue_histogram(
                    report.spectrum.eigenvalues, tmp))
    print(f"k_hat={report.k_hat} lambda_bar={report.lambda_bar:.6f} "
          f"threshold={report.threshold:.6f} c={report.ratio_c:.4f}")


def cmd_allocate(args) -> None:
    """Allocate from a returns CSV; write weights.csv and allocation.json."""
    config = _load_config(args.config)
    opt_cfg = _build("optimizer", config, args)
    clean_cfg = _build("clean", config, args)
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
    _atomic_csv(out / "weights.csv", ["asset", "weight"],
                zip(panel.labels, _float_cells(result.weights.weights)))
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
    for name, result in results.items():
        suffix = f"_{name}" if len(results) > 1 else ""
        _atomic_csv(out / f"weights{suffix}.csv", ["Date", *result.labels],
                    ([date, *_float_cells(row)] for date, row
                     in zip(result.rebalance_dates, result.weights)))

    def write_aligned(path, dates, columns):
        _atomic_csv(path, ["Date", *(name for name, _ in columns)],
                    ([date,
                      *_float_cells([column[i] for _, column in columns])]
                     for i, date in enumerate(dates)))

    first = next(iter(results.values()))
    wealth = [(name, result.wealth) for name, result in results.items()]
    if first.benchmark_label is not None:
        wealth.append((first.benchmark_label, first.benchmark_wealth))
    write_aligned(out / "wealth.csv", first.wealth_dates, wealth)
    write_aligned(out / "turnover.csv", first.rebalance_dates,
                  [(name, result.turnover) for name, result in results.items()])


def cmd_backtest(args) -> None:
    """Backtest a price CSV; write result.json, weights, wealth, turnover."""
    config = _load_config(args.config)
    base_cfg = _build("backtest", config, args)

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
    """Model orders selected on one panel by SCM and raw Tyler, both at the
    pipeline's bulk edge, and by the pipeline."""
    returns = gen_panel(spec).returns
    cov = scm(returns, demean=clean_cfg.demean).values
    cov_eigs = np.linalg.eigvalsh(cov)

    # the pipeline's first pass is the raw Tyler estimate, so reuse it
    report = clean_covariance(returns, clean_cfg)
    scm_k = select_order(cov_eigs / cov_eigs.mean(), report.lambda_bar)
    tyler_k = select_order(np.linalg.eigvalsh(report.robust_scatter.values),
                           report.lambda_bar)
    return scm_k, tyler_k, report.k_hat


def cmd_mc_order(args) -> None:
    """Tally selected model orders over seeded trials; write a CSV table."""
    config = _load_config(args.config)
    clean_cfg = _build("clean", config, args)
    spec = _build("synth", config, args)
    trials = _settings(config, "mc_order", args).get("trials")
    if trials is None:
        raise UsageError("mc-order needs --trials (or config mc_order.trials)")
    _count("trials", trials, 1)

    triples = []
    for i in range(trials):
        seed = spec.seed + i
        try:
            triples.append(_order_counts(
                dataclasses.replace(spec, seed=seed), clean_cfg))
        except MaxVarietyError as exc:
            # same class, so the exit code is unchanged
            exc.args = (f"{exc} (trial {i + 1} of {trials}, seed {seed})",)
            raise

    columns = ("scm", "tyler_raw", "tyler_whitened")
    top = max(max(triple) for triple in triples)
    counts = np.zeros((top + 1, 3), dtype=int)
    for triple in triples:
        for j, k in enumerate(triple):
            counts[k, j] += 1

    out = _out_dir(args)
    _atomic_csv(out / "order_frequencies.csv", ["k_hat", *columns],
                ([k, *row] for k, row in enumerate(counts.tolist())))
    print(f"trials={trials} (seeds {spec.seed}..{spec.seed + trials - 1})")
    for j, name in enumerate(columns):
        mode = int(np.argmax(counts[:, j]))
        share = counts[mode, j] / trials
        print(f"  {name}: mode k_hat={mode} ({share:.0%} of trials)")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _add_flags(sub, *sections) -> None:
    """One flag per config key of ``sections``, typed by its annotation."""
    for section in sections:
        for key, kind in _SECTION_KEYS[section].items():
            sub.add_argument("--" + key.replace("_", "-"),
                             help=f"config key {section}.{key}",
                             **_JSON_TYPES[kind][2])


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
    _add_flags(synth, "synth")

    clean = subs.add_parser("clean", parents=[common],
                            help="run the covariance cleaning pipeline")
    clean.add_argument("--input", required=True, help="returns CSV")
    _add_flags(clean, "tyler", "clean")

    allocate = subs.add_parser("allocate", parents=[common],
                               help="compute maximum-variety weights")
    allocate.add_argument("--input", required=True, help="returns CSV")
    allocate.add_argument("--estimator", choices=list(ESTIMATORS),
                          default="rmt_tyler_whitened")
    _add_flags(allocate, "tyler", "clean")

    backtest = subs.add_parser("backtest", parents=[common],
                               help="rolling backtest over a price CSV")
    backtest.add_argument("--prices", required=True, help="price CSV")
    backtest.add_argument("--compare", action="store_true",
                          help="run every estimator on one schedule")
    backtest.add_argument("--missing-policy", choices=MISSING_POLICIES,
                          default="error")
    _add_flags(backtest, "tyler", "clean", "backtest")

    mc = subs.add_parser("mc-order", parents=[common],
                         help="Monte Carlo tally of selected model orders")
    _add_flags(mc, "synth", "tyler", "clean", "mc_order")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_out(Path(args.out))
        # looked up at call time, so a rebound ``cmd_*`` is the one that runs
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except MaxVarietyError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
