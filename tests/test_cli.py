"""End-to-end command-line tests: every subcommand through main()."""

from __future__ import annotations

import csv
import datetime
import json

import numpy as np
import pytest

from maxvariety import (FactorModelSpec, UsageError, demean_rows, gen_panel,
                        mp_upper_bound, order_threshold, tyler)
import maxvariety.cli as cli
import maxvariety.errors as errors
from maxvariety.cli import main


def _run(*argv):
    return main(list(argv))


def _write_price_csv(path, m=3, t=61, seed=50):
    rng = np.random.default_rng(seed)
    steps = 0.0004 + 0.012 * rng.standard_normal((m, t - 1))
    prices = 100.0 * np.cumprod(np.hstack([np.ones((m, 1)), 1.0 + steps]),
                                axis=1)
    start = datetime.date(2019, 6, 3)
    labels = [f"A{i:03d}" for i in range(m)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date"] + labels)
        for j in range(t):
            day = start + datetime.timedelta(days=j)
            writer.writerow([day.isoformat()]
                            + [repr(float(p)) for p in prices[:, j]])
    return labels


# ---------------------------------------------------------------- synth


def test_synth_writes_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = _run("synth", "--m", "6", "--N", "40", "--K", "1",
                    "--rho", "0.3", "--seed", "7", "--out", str(out))
        assert code == 0
    assert (a / "returns.csv").read_bytes() == (b / "returns.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    truth = json.loads((a / "truth.json").read_text())
    assert truth["spec"]["m"] == 6
    assert len(truth["true_scatter"]) == 6


def test_synth_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run("synth", "--m", "4", "--N", "30", "--seed", "1", "--out", str(a))
    _run("synth", "--m", "4", "--N", "30", "--seed", "2", "--out", str(b))
    assert (a / "returns.csv").read_bytes() != (b / "returns.csv").read_bytes()


def test_synth_rejects_invalid_spec(tmp_path, capsys):
    code = _run("synth", "--m", "4", "--N", "30", "--rho", "1.5",
                "--out", str(tmp_path))
    assert code == 1
    assert "rho" in capsys.readouterr().err


def test_synth_requires_m_and_n(tmp_path, capsys):
    code = _run("synth", "--out", str(tmp_path))
    assert code == 1
    assert "synthetic spec needs" in capsys.readouterr().err


def test_synth_reads_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"m": 5, "N": 25, "seed": 3}}))
    code = _run("synth", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["spec"] == {"m": 5, "N": 25, "K": 0, "rho": 0.0, "nu": 1.0,
                             "factor_snr": 10.0, "seed": 3}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for payload, key in (({"synth": {"m": 5, "N": 25, "bogus": 1}}, "bogus"),
                         ({"optimizer": {"n_starts": 4}}, "n_starts"),
                         ({"clean": {"clip_rule": "literal"}}, "clip_rule"),
                         ({"tyler": {"eigen_floor": 1e-10}}, "eigen_floor")):
        cfg.write_text(json.dumps(payload))
        code = _run("synth", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(("section", "key", "value"), [
    ("mc_order", "trials", "5"),
    ("mc_order", "trials", 2.5),
    ("mc_order", "trials", True),
    ("tyler", "max_iter", "10"),
    ("tyler", "tol", None),
    ("clean", "eigen_floor", None),
    ("clean", "demean", 1),
    ("synth", "seed", 1.0),
    ("optimizer", "kkt_tol", False),
    ("backtest", "benchmark", 3),
    ("backtest", "estimator", None),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, section,
                                                   key, value):
    # the whole file is checked before any section is used, so mc-order
    # also rejects the backtest and optimizer sections it never reads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    code = _run("mc-order", "--m", "10", "--N", "80", "--config", str(cfg),
                "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and "Traceback" not in err
    assert repr(section) in err and repr(key) in err and "must be" in err


def test_config_values_of_the_field_type_are_accepted(tmp_path):
    # an int where a float goes, and null where a string is optional
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "synth": {"m": 4, "N": 20, "rho": 0},
        "optimizer": {"kkt_tol": 1},
        "clean": {"demean": False, "eigen_floor": 0},
        "backtest": {"benchmark": None, "estimator": "scm"},
        "mc_order": {"trials": 1}}))
    assert _run("synth", "--config", str(cfg), "--out", str(tmp_path)) == 0
    # every annotated field type has a JSON rule
    assert {kind for keys in cli._SECTION_KEYS.values()
            for kind in keys.values()} <= set(cli._JSON_TYPES)


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": {}}))
    code = _run("synth", "--m", "4", "--N", "20",
                "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = _run("synth", "--m", "4", "--N", "20",
                "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------- clean


def _synth_returns(tmp_path, **kw):
    out = tmp_path / "synth"
    argv = ["synth", "--out", str(out)]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert _run(*argv) == 0
    return out / "returns.csv"


def test_clean_full_pipeline_outputs(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=30, N=400, K=2, rho=0.5, nu=0.5,
                             factor_snr=8.0, seed=9)
    out = tmp_path / "clean"
    code = _run("clean", "--input", str(returns), "--out", str(out),
                "--no-demean")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["k_hat"] == 2
    assert report["lambda_bar"] == pytest.approx((1 + np.sqrt(30 / 400)) ** 2)
    assert report["threshold"] == pytest.approx(order_threshold(30, 400))
    assert report["threshold"] > report["lambda_bar"]
    assert len(report["eigenvalues"]) == 30
    assert (out / "denoised.csv").exists()
    assert (out / "spectrum_histogram.csv").exists()
    printed = capsys.readouterr().out
    assert "k_hat=2" in printed
    assert f"threshold={report['threshold']:.6f}" in printed


def test_clean_rejects_short_panel(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=20, N=15, seed=1)
    code = _run("clean", "--input", str(returns), "--out", str(tmp_path))
    assert code == 1
    assert "more observations than assets" in capsys.readouterr().err


def test_clean_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Header\njunk,row\n")
    code = _run("clean", "--input", str(bad), "--out", str(tmp_path))
    assert code == 2


def test_clean_missing_input_is_data_error(tmp_path):
    code = _run("clean", "--input", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("defect", ["non_utf8", "long_field"])
@pytest.mark.parametrize("command", ["clean", "backtest"])
def test_undecodable_or_oversized_csv_is_data_error(tmp_path, capsys,
                                                    command, defect):
    path = tmp_path / "input.csv"
    _write_price_csv(path, m=3, t=61)
    text = path.read_bytes()
    if defect == "non_utf8":
        text = text.replace(b"A001", b"A\xff01", 1)
    else:
        text += b"2019-08-03,1." + b"0" * 140_000 + b",1.0,1.0\r\n"
    path.write_bytes(text)
    flag = "--input" if command == "clean" else "--prices"
    code = _run(command, flag, str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- allocate


def test_allocate_scm_weights_sum_to_one(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=5, N=120, K=1, rho=0.4, seed=11)
    out = tmp_path / "alloc"
    code = _run("allocate", "--input", str(returns), "--estimator", "scm",
                "--out", str(out))
    assert code == 0
    rows = list(csv.reader(open(out / "weights.csv")))
    assert rows[0] == ["asset", "weight"]
    weights = [float(row[1]) for row in rows[1:]]
    assert len(weights) == 5
    assert sum(weights) == pytest.approx(1.0, abs=1e-8)
    assert min(weights) >= 0.0
    payload = json.loads((out / "allocation.json").read_text())
    assert payload["estimator"] == "scm"
    assert payload["k_hat"] is None
    assert payload["variety_ratio"] >= 1.0
    assert "variety_ratio=" in capsys.readouterr().out


def test_allocate_robust_estimator_reports_k_hat(tmp_path):
    returns = _synth_returns(tmp_path, m=10, N=200, K=1, rho=0.3,
                             factor_snr=8.0, seed=12)
    out = tmp_path / "alloc"
    code = _run("allocate", "--input", str(returns), "--no-demean",
                "--out", str(out))
    assert code == 0
    payload = json.loads((out / "allocation.json").read_text())
    assert payload["estimator"] == "rmt_tyler_whitened"
    assert payload["k_hat"] == 1


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_allocate_non_finite_cell_is_data_error(tmp_path, capsys, cell):
    returns = _synth_returns(tmp_path, m=4, N=30, seed=14)
    rows = list(csv.reader(open(returns)))
    rows[3][2] = cell
    with open(returns, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = _run("allocate", "--input", str(returns), "--estimator", "scm",
                "--out", str(tmp_path / "alloc"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"row 4, column 3 ({rows[0][2]!r}): not finite: {cell!r}" in err
    assert "Traceback" not in err


def test_allocate_has_no_seed_flag(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=4, N=30, seed=15)
    code = _run("allocate", "--input", str(returns), "--seed", "1",
                "--out", str(tmp_path / "alloc"))
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_allocate_deterministic_json(tmp_path):
    returns = _synth_returns(tmp_path, m=4, N=80, seed=13)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("allocate", "--input", str(returns), "--estimator",
                    "scm", "--out", str(out)) == 0
    assert ((a / "allocation.json").read_bytes()
            == (b / "allocation.json").read_bytes())


# ---------------------------------------------------------------- backtest


def test_backtest_compare_writes_aligned_outputs(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    labels = _write_price_csv(prices, m=3, t=61)
    out = tmp_path / "bt"
    code = _run("backtest", "--prices", str(prices), "--compare",
                "--window-days", "30", "--rebalance-days", "5",
                "--no-demean", "--out", str(out))
    assert code == 0

    result = json.loads((out / "result.json").read_text())
    assert set(result["results"]) == {"scm", "rmt_tyler_whitened"}
    assert result["config"]["window_days"] == 30
    assert "optimizer_seed" not in result["config"]
    assert result["fill_counts"] == {label: 0 for label in labels}

    wealth_rows = list(csv.reader(open(out / "wealth.csv")))
    assert wealth_rows[0] == ["Date", "scm", "rmt_tyler_whitened"]
    assert len(wealth_rows) > 2
    turnover_rows = list(csv.reader(open(out / "turnover.csv")))
    assert turnover_rows[0] == ["Date", "scm", "rmt_tyler_whitened"]
    for row in turnover_rows[1:]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 2.0

    weights_rows = list(csv.reader(open(out / "weights_scm.csv")))
    assert weights_rows[0] == ["Date"] + labels
    assert (out / "weights_rmt_tyler_whitened.csv").exists()

    printed = capsys.readouterr().out
    assert "scm: return=" in printed
    assert "rmt_tyler_whitened: return=" in printed


def test_backtest_single_estimator_plain_weights_name(tmp_path):
    prices = tmp_path / "prices.csv"
    _write_price_csv(prices, m=2, t=50)
    out = tmp_path / "bt"
    code = _run("backtest", "--prices", str(prices), "--estimator", "scm",
                "--window-days", "20", "--rebalance-days", "10",
                "--out", str(out))
    assert code == 0
    assert (out / "weights.csv").exists()
    assert not (out / "weights_scm.csv").exists()


def test_backtest_benchmark_column(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    labels = _write_price_csv(prices, m=3, t=61)
    out = tmp_path / "bt"
    code = _run("backtest", "--prices", str(prices), "--estimator", "scm",
                "--window-days", "30", "--rebalance-days", "5",
                "--benchmark", labels[-1], "--out", str(out))
    assert code == 0
    wealth_rows = list(csv.reader(open(out / "wealth.csv")))
    assert wealth_rows[0] == ["Date", "scm", labels[-1]]
    assert float(wealth_rows[1][2]) == 100.0
    weights_rows = list(csv.reader(open(out / "weights.csv")))
    assert weights_rows[0] == ["Date"] + labels[:-1]
    result = json.loads((out / "result.json").read_text())
    assert result["results"]["scm"]["benchmark"]["label"] == labels[-1]
    assert f"benchmark {labels[-1]}: return=" in capsys.readouterr().out


def test_backtest_missing_price_file(tmp_path, capsys):
    code = _run("backtest", "--prices", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path))
    assert code == 2
    assert "cannot read price file" in capsys.readouterr().err


def test_backtest_non_finite_price_is_data_error(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    labels = _write_price_csv(prices, m=3, t=61)
    rows = list(csv.reader(open(prices)))
    rows[5][2] = "nan"
    with open(prices, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = _run("backtest", "--prices", str(prices), "--estimator", "scm",
                "--window-days", "30", "--rebalance-days", "5",
                "--out", str(tmp_path / "bt"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"row 6, column {labels[1]!r}: not finite: 'nan'" in err
    assert "Traceback" not in err


def test_backtest_short_history_is_parameter_error(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    _write_price_csv(prices, m=2, t=25)
    code = _run("backtest", "--prices", str(prices),
                "--window-days", "30", "--rebalance-days", "5",
                "--out", str(tmp_path))
    assert code == 1
    assert "too short" in capsys.readouterr().err


def test_backtest_deterministic_bytes(tmp_path):
    prices = tmp_path / "prices.csv"
    _write_price_csv(prices, m=3, t=61)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("backtest", "--prices", str(prices), "--compare",
                    "--window-days", "30", "--rebalance-days", "5",
                    "--no-demean", "--out", str(out)) == 0
    for name in ("result.json", "wealth.csv", "turnover.csv",
                 "weights_scm.csv", "weights_rmt_tyler_whitened.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------- mc-order


def _order_table(out):
    rows = list(csv.reader(open(out / "order_frequencies.csv")))
    assert rows[0] == ["k_hat", "scm", "tyler_raw", "tyler_whitened"]
    return np.array([[int(v) for v in row] for row in rows[1:]])


def test_mc_order_table(tmp_path, capsys):
    out = tmp_path / "mc"
    code = _run("mc-order", "--m", "20", "--N", "200", "--K", "1",
                "--rho", "0.3", "--nu", "0.5", "--factor-snr", "8.0",
                "--trials", "3", "--seed", "0", "--no-demean",
                "--out", str(out))
    assert code == 0
    table = _order_table(out)
    np.testing.assert_array_equal(table[:, 1:].sum(axis=0), [3, 3, 3])
    printed = capsys.readouterr().out
    assert "trials=3 (seeds 0..2)" in printed
    assert "tyler_whitened: mode k_hat=1" in printed

    # the raw Tyler column against independent estimator calls; on these
    # noise-only panels demeaning moves the raw count, so a first pass
    # that ignored the flag would show
    for demean in (False, True):
        out = tmp_path / f"raw-{demean}"
        code = _run("mc-order", "--m", "30", "--N", "200", "--K", "0",
                    "--rho", "0.5", "--nu", "0.5", "--trials", "3",
                    "--seed", "0", "--demean" if demean else "--no-demean",
                    "--out", str(out))
        assert code == 0
        raw_orders = []
        for seed in range(3):
            spec = FactorModelSpec(m=30, N=200, K=0, rho=0.5, nu=0.5,
                                   seed=seed)
            x = gen_panel(spec).returns
            raw = tyler(demean_rows(x) if demean else x).values
            raw_orders.append(int(np.count_nonzero(
                np.linalg.eigvalsh(raw) > mp_upper_bound(30 / 200))))
        table = _order_table(out)
        np.testing.assert_array_equal(
            table[:, 2], np.bincount(raw_orders, minlength=table.shape[0]))


def test_mc_order_requires_trials(tmp_path, capsys):
    code = _run("mc-order", "--m", "10", "--N", "100", "--out", str(tmp_path))
    assert code == 1
    assert "--trials" in capsys.readouterr().err


# ---------------------------------------------------------------- parser


def test_unknown_subcommand_is_usage_error(capsys):
    assert _run("explode") == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert _run("clean") == 1
    assert "--input" in capsys.readouterr().err


def test_failed_json_write_leaves_no_temporary_file(tmp_path):
    # renaming onto a directory fails after the temporary file is written
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(UsageError, match="report.json"):
        cli._atomic_write_json(target, {"k_hat": 0})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_synth_out_is_an_existing_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code = _run("synth", "--m", "3", "--N", "5", "--out", str(taken))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot create output directory")
    assert str(taken) in err
    assert taken.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_clean_out_below_a_file_is_usage_error(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=5, N=60, seed=2)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = _run("clean", "--input", str(returns), "--no-demean",
                "--out", str(blocker / "x"))
    assert code == 1
    assert str(blocker / "x") in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


def test_clean_output_blocked_by_a_directory_is_usage_error(tmp_path, capsys):
    # report.json exists as a directory: the rename onto it fails
    returns = _synth_returns(tmp_path, m=5, N=60, seed=2)
    out = tmp_path / "clean"
    (out / "report.json").mkdir(parents=True)
    code = _run("clean", "--input", str(returns), "--no-demean",
                "--out", str(out))
    assert code == 1
    assert str(out / "report.json") in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


def _refuse_input(*args, **kwargs):
    raise AssertionError("input read before --out was checked")


def test_unusable_out_is_refused_before_input_is_read(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "load_returns_csv", _refuse_input)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    returns = tmp_path / "absent.csv"
    for argv, out in ((["clean", "--input", str(returns)], blocker / "x"),
                      (["allocate", "--input", str(returns)], blocker)):
        assert _run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot create output directory")
        assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_zero_variance_allocation_is_numerical_error(tmp_path, capsys):
    returns = _synth_returns(tmp_path, m=12, N=4, K=0, rho=0.5, nu=1.0,
                             seed=2)
    out = tmp_path / "alloc"
    code = _run("allocate", "--input", str(returns), "--estimator", "scm",
                "--no-demean", "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "zero variance" in err
    assert not out.exists()


def _error_classes(base=errors.MaxVarietyError):
    return [base] + [sub for cls in base.__subclasses__()
                     for sub in _error_classes(cls)]


_EXIT_CODES = {
    errors.MaxVarietyError: (1, "error: "),
    errors.ParameterError: (1, "error: "),
    errors.UsageError: (1, "usage error: "),
    errors.InsufficientSamplesError: (1, "error: "),
    errors.IngestionError: (2, "data error: "),
    errors.NumericalError: (3, "numerical error: "),
    errors.SingularMatrixError: (3, "numerical error: "),
    errors.DegenerateDataError: (3, "numerical error: "),
    errors.DegenerateSpectrumError: (3, "numerical error: "),
    errors.ConvergenceError: (3, "numerical error: "),
}


def test_exit_code_table_names_every_error_class():
    assert set(_error_classes()) == set(_EXIT_CODES)


@pytest.mark.parametrize("error", list(_EXIT_CODES),
                         ids=lambda cls: cls.__name__)
def test_each_error_class_maps_to_its_exit_code(tmp_path, capsys,
                                                monkeypatch, error):
    def fail(args):
        raise error("planted failure")

    monkeypatch.setattr(cli, "cmd_allocate", fail)
    code = _run("allocate", "--input", "in.csv",
                "--out", str(tmp_path / "out"))
    status, prefix = _EXIT_CODES[error]
    assert code == status
    assert capsys.readouterr().err == f"{prefix}planted failure\n"
