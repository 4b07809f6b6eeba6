"""End-to-end command-line tests: every subcommand through main()."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json

import numpy as np
import pytest

from maxvariety import (BacktestConfig, CleanConfig, FactorModelSpec,
                        UsageError, clean_covariance, demean_rows, gen_panel,
                        load_prices, load_returns_csv, mp_upper_bound,
                        order_threshold, run_backtest, tyler)
from maxvariety.backtest import ESTIMATORS
import maxvariety.cli as cli
import maxvariety.denoise as denoise
import maxvariety.errors as errors
from maxvariety.cli import main


def _run(*argv):
    return main(list(argv))


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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
    # a negative seed is refused here, not by the generator's own ValueError
    code = _run("synth", "--m", "4", "--N", "30", "--seed", "-1",
                "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")


@pytest.mark.parametrize("command", ["synth", "mc-order"])
@pytest.mark.parametrize(("m", "n"), [(10**20, 10), (2, 10**19)],
                         ids=["m-past-numpy", "N-past-numpy"])
def test_a_size_numpy_cannot_describe_is_refused(tmp_path, capsys, command,
                                                 m, n):
    # refused by the spec, before any array is made
    argv = [command, "--m", str(m), "--N", str(n),
            "--out", str(tmp_path / "out")]
    if command == "mc-order":
        argv += ["--trials", "1"]
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: m={m}, N={n} is too large")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "mc-order"])
@pytest.mark.parametrize("flags, message", [
    # a texture of NaN (nu=1e-320) or exactly zero (nu=1e-300) passes the
    # positive-and-finite rule of nu but leaves no usable observation
    (["--nu", "1e-320"], "nu=1e-320 draws textures that are not finite"),
    (["--nu", "1e-300"], "nu=1e-300 draws textures that are not finite"),
    (["--K", "1", "--factor-snr", "1e308"],
     "factor_snr=1e+308 is too large: the returns overflow"),
    (["--K", "2", "--factor-snr", "1e308"],
     "factor_snr=1e+308 is too large: the returns overflow")],
    ids=["nan-textures", "zero-textures", "overflow-K1", "overflow-K2"])
def test_a_spec_that_draws_a_degenerate_panel_is_refused(tmp_path, capsys,
                                                         command, flags,
                                                         message):
    argv = [command, "--m", "3", "--N", "10", *flags,
            "--out", str(tmp_path / "out")]
    if command == "mc-order":
        argv += ["--trials", "2"]
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_mc_order_names_the_trial_whose_spec_is_refused(tmp_path, capsys):
    # at m=10, nu=0.01 the textures of seed 10004 underflow; seeds
    # 10000-10003 draw
    out = tmp_path / "out"
    assert _run("mc-order", "--m", "10", "--N", "1000", "--nu", "0.01",
                "--trials", "5", "--seed", "10000", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == ("error: nu=0.01 draws textures that are not finite and "
                   "positive (trial 5 of 5, seed 10004)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "mc-order"])
def test_synth_requires_m_and_n(tmp_path, capsys, command):
    trials = ["--trials", "1"] if command == "mc-order" else []
    code = _run(command, *trials, "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: section 'synth' needs m, N (flag or config)\n")


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
                         ({"tyler": {"eigen_floor": 1e-10}}, "eigen_floor"),
                         ({"clean": {"eigen_floor": 1e-10}}, "eigen_floor")):
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
    ("clean", "demean", None),
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
        "tyler": {"tol": 1},
        "clean": {"demean": False},
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


@pytest.mark.parametrize(("command", "section", "key"),
                         [("synth", "synth", "nu"), ("clean", "tyler", "tol")])
def test_a_config_integer_past_the_float_range_is_usage_error(
        tmp_path, capsys, command, section, key):
    # json.dumps writes 10**400 out in full; an int is a valid number key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: 10**400}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "synth":
        argv += ["--m", "3", "--N", "10"]
    else:
        argv += ["--input", str(_synth_returns(tmp_path, m=3, N=10))]
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert repr(section) in err and repr(key) in err and "float range" in err
    assert not out.exists()


def test_a_config_integer_past_the_digit_limit_is_usage_error(tmp_path,
                                                              capsys):
    # json.loads refuses an integer of more than 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"synth": {"seed": 1' + "0" * 5000 + "}}")
    code = _run("synth", "--m", "3", "--N", "10", "--config", str(cfg),
                "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config file {cfg}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("text", "message"), [
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"tyler": 5}', "section 'tyler' must be an object"),
    (None, "cannot read config file"),  # the path is a directory
])
def test_malformed_config_rejected(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is None:
        cfg.mkdir()
    else:
        cfg.write_text(text)
    code = _run("synth", "--m", "4", "--N", "20",
                "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert message in capsys.readouterr().err


class _Handed(Exception):
    """Stops a run at the call that would take its derived settings."""


# Per section: the subcommand, the call that takes the derived settings and
# how to read them from its arguments, the file's keys, and one flag that
# names one of those keys.
_FLAG_OVER_FILE = {
    "synth": ("synth", "gen_panel", lambda a: dataclasses.asdict(a[0]),
              {"m": 5, "N": 25, "seed": 3, "nu": 2.0},
              ["--seed", "4"], {"seed": 4}),
    "tyler": ("clean", "clean_covariance",
              lambda a: dataclasses.asdict(a[1].tyler),
              {"max_iter": 7, "tol": 1e-6}, ["--tol", "1e-7"], {"tol": 1e-7}),
    "clean": ("clean", "clean_covariance",
              lambda a: {"demean": a[1].demean}, {"demean": False},
              ["--demean"], {"demean": True}),
    "backtest": ("backtest", "run_backtest", lambda a: vars(a[1]),
                 {"window_days": 30, "rebalance_days": 5,
                  "annualization_days": 250, "estimator": "scm"},
                 ["--rebalance-days", "7"], {"rebalance_days": 7}),
}


@pytest.mark.parametrize("section", list(_FLAG_OVER_FILE))
@pytest.mark.parametrize("flagged", [False, True],
                         ids=["file-only", "flag-given"])
def test_a_given_flag_beats_the_config_key_of_its_name(tmp_path, monkeypatch,
                                                       section, flagged):
    command, target, read, keys, flag, flag_keys = _FLAG_OVER_FILE[section]
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "clean":
        argv += ["--input", str(_synth_returns(tmp_path, m=4, N=30, seed=1))]
    elif command == "backtest":
        _write_price_csv(tmp_path / "prices.csv", m=3, t=61)
        argv += ["--prices", str(tmp_path / "prices.csv")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: keys}))
    handed = []

    def stand_in(*args):
        handed.append(args)
        raise _Handed

    monkeypatch.setattr(cli, target, stand_in)
    with pytest.raises(_Handed):
        _run(*argv, "--config", str(cfg), *(flag if flagged else []))
    settings = read(handed[0])
    expected = {**keys, **flag_keys} if flagged else keys
    assert {key: settings[key] for key in expected} == expected


def test_mc_order_trials_flag_beats_the_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"m": 6, "N": 40},
                               "mc_order": {"trials": 3}}))
    for flag, trials in (([], 3), (["--trials", "2"], 2)):
        out = tmp_path / f"mc{trials}"
        assert _run("mc-order", "--config", str(cfg), "--out", str(out),
                    *flag) == 0
        assert _order_table(out)[:, 1:].sum(axis=0).tolist() == [trials] * 3


@pytest.mark.parametrize(("command", "flags", "config"), [
    ("synth", ["--factor-snr", "nan"], None),
    ("synth", ["--factor-snr", "inf"], None),
    ("synth", ["--nu", "inf"], None),
    ("synth", [], {"synth": {"nu": float("inf")}}),
    ("clean", ["--tol", "nan"], None),
    ("clean", ["--tol", "inf"], None),
    ("clean", [], {"tyler": {"tol": float("inf")}}),
    ("allocate", [], {"optimizer": {"kkt_tol": float("inf")}}),
], ids=["synth-snr-nan", "synth-snr-inf", "synth-nu-inf",
        "synth-config-nu-inf", "clean-tol-nan", "clean-tol-inf",
        "clean-config-tol-inf", "allocate-config-kkt-tol-inf"])
def test_non_finite_setting_is_rejected_before_anything_is_written(
        tmp_path, capsys, command, flags, config):
    argv = [command, *flags]
    if command == "synth":
        argv += ["--m", "4", "--N", "6", "--K", "1"]
    else:
        argv += ["--input", str(_synth_returns(tmp_path, m=4, N=30, seed=1))]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


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
    # the CSV artifacts read back bit for bit
    expected = clean_covariance(load_returns_csv(returns).values,
                                CleanConfig(demean=False))
    rows = _csv_rows(out / "denoised.csv")
    assert rows[0] == ["30", "covariance_scale"]
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float),
                                  expected.denoised)
    counts, edges = np.histogram(np.log(expected.spectrum.eigenvalues),
                                 bins=60)
    rows = _csv_rows(out / "spectrum_histogram.csv")
    assert rows[0] == ["bin_center", "count"]
    np.testing.assert_array_equal([float(row[0]) for row in rows[1:]],
                                  0.5 * (edges[:-1] + edges[1:]))
    assert [int(row[1]) for row in rows[1:]] == counts.tolist()
    printed = capsys.readouterr().out
    assert "k_hat=2" in printed
    assert f"threshold={report['threshold']:.6f}" in printed


def test_clean_refuses_a_noise_scatter_it_cannot_whiten(tmp_path, capsys,
                                                        monkeypatch):
    # no panel was found whose rectified noise scatter fails the Cholesky
    # certificate (rectification never lowers the first pass's smallest
    # eigenvalue, and Tyler refuses first), so a rectification with a zero
    # eigenvalue stands in for one
    returns = _synth_returns(tmp_path, m=4, N=30, seed=1)
    monkeypatch.setattr(denoise, "toeplitzify",
                        lambda matrix: np.diag([1.0, 1.0, 1.0, 0.0]))
    out = tmp_path / "out"
    assert _run("clean", "--input", str(returns), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the noise scatter is too "
                          "ill-conditioned to whiten: its smallest "
                          "eigenvalue is 0.000e+00 of their mean")
    assert not (out / "report.json").exists()


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


@pytest.mark.parametrize("command", ["allocate", "backtest"])
def test_repeated_label_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "input.csv"
    if command == "allocate":
        path.write_text("t,A,B,A\n0,1.0,2.0,3.0\n1,0.5,0.1,0.2\n"
                        "2,-0.5,0.3,0.1\n")
        argv = ["--input", str(path), "--estimator", "scm"]
    else:
        _write_price_csv(path, m=3, t=61)
        path.write_text(path.read_text().replace("A002", "A000", 1))
        argv = ["--prices", str(path), "--window-days", "20",
                "--rebalance-days", "10"]
    out = tmp_path / "out"
    assert _run(command, *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    label = "A" if command == "allocate" else "A000"
    assert f"label {label!r} heads columns 2 and 4" in err
    assert not out.exists()


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
    rows = _csv_rows(out / "weights.csv")
    assert rows[0] == ["asset", "weight"]
    weights = [float(row[1]) for row in rows[1:]]
    assert len(weights) == 5
    assert sum(weights) == pytest.approx(1.0, abs=1e-8)
    assert min(weights) >= 0.0
    payload = json.loads((out / "allocation.json").read_text())
    assert {row[0]: float(row[1]) for row in rows[1:]} == payload["weights"]
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
    rows = _csv_rows(returns)
    rows[3][2] = cell
    with open(returns, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = _run("allocate", "--input", str(returns), "--estimator", "scm",
                "--out", str(tmp_path / "alloc"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"row 4, column 3 ({rows[0][2]!r}): not finite: {cell!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("estimator", ["scm", "rmt_tyler_whitened"])
def test_allocate_overflowing_panel_exits_3(tmp_path, capsys, estimator):
    # finite returns whose squares overflow a float
    returns = _synth_returns(tmp_path, m=10, N=100, seed=17)
    rows = _csv_rows(returns)
    with open(returns, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [rows[0], *([row[0], *(repr(float(v) * 1e155) for v in row[1:])]
                        for row in rows[1:])])
    code = _run("allocate", "--input", str(returns), "--estimator",
                estimator, "--out", str(tmp_path / "alloc"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the sum of squares of asset 0 "
                          "overflows")
    assert "Traceback" not in err and "Warning" not in err


def test_allocate_least_squares_failure_exits_3(tmp_path, capsys,
                                               monkeypatch):
    # 12 assets over 8 days: the SCM is singular, so the walk solves its
    # first face by least squares, here made to fail as an SVD can
    returns = _synth_returns(tmp_path, m=12, N=8, seed=16)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(
            "SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    code = _run("allocate", "--input", str(returns), "--estimator", "scm",
                "--out", str(tmp_path / "alloc"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: least squares failed")
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

    wealth_rows = _csv_rows(out / "wealth.csv")
    assert wealth_rows[0] == ["Date", "scm", "rmt_tyler_whitened"]
    assert len(wealth_rows) > 2
    turnover_rows = _csv_rows(out / "turnover.csv")
    assert turnover_rows[0] == ["Date", "scm", "rmt_tyler_whitened"]
    for row in turnover_rows[1:]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 2.0

    weights_rows = _csv_rows(out / "weights_scm.csv")
    assert weights_rows[0] == ["Date"] + labels
    assert (out / "weights_rmt_tyler_whitened.csv").exists()

    printed = capsys.readouterr().out
    assert "scm: return=" in printed
    assert "rmt_tyler_whitened: return=" in printed


def test_backtest_csvs_read_back_as_run_backtest_arrays(tmp_path):
    prices = tmp_path / "prices.csv"
    labels = _write_price_csv(prices, m=4, t=61)
    out = tmp_path / "bt"
    assert _run("backtest", "--prices", str(prices), "--compare",
                "--benchmark", labels[-1], "--window-days", "30",
                "--rebalance-days", "5", "--no-demean",
                "--out", str(out)) == 0
    panel = load_prices(prices)
    results = {name: run_backtest(panel, BacktestConfig(
        window_days=30, rebalance_days=5, estimator=name,
        benchmark=labels[-1], clean=CleanConfig(demean=False)))
        for name in ESTIMATORS}

    def table(name):
        rows = _csv_rows(out / name)
        return (rows[0], [row[0] for row in rows[1:]],
                np.array([row[1:] for row in rows[1:]], dtype=float))

    for name, result in results.items():
        header, dates, cells = table(f"weights_{name}.csv")
        assert header == ["Date", *labels[:-1]]
        assert dates == result.rebalance_dates
        np.testing.assert_array_equal(cells, result.weights)
    first = results[ESTIMATORS[0]]
    header, dates, cells = table("wealth.csv")
    assert header == ["Date", *ESTIMATORS, labels[-1]]
    assert dates == first.wealth_dates
    np.testing.assert_array_equal(cells, np.column_stack(
        [*(r.wealth for r in results.values()), first.benchmark_wealth]))
    header, dates, cells = table("turnover.csv")
    assert header == ["Date", *ESTIMATORS]
    assert dates == first.rebalance_dates
    np.testing.assert_array_equal(cells, np.column_stack(
        [r.turnover for r in results.values()]))


def test_backtest_unknown_estimator_is_refused_by_its_config(tmp_path,
                                                            capsys):
    prices = tmp_path / "prices.csv"
    _write_price_csv(prices, m=2, t=50)
    code = _run("backtest", "--prices", str(prices), "--estimator", "x",
                "--out", str(tmp_path / "bt"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: unknown estimator 'x'; choose from {ESTIMATORS}\n")
    assert not (tmp_path / "bt").exists()


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
    wealth_rows = _csv_rows(out / "wealth.csv")
    assert wealth_rows[0] == ["Date", "scm", labels[-1]]
    assert float(wealth_rows[1][2]) == 100.0
    weights_rows = _csv_rows(out / "weights.csv")
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
    rows = _csv_rows(prices)
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


@pytest.mark.parametrize("estimators", [["--estimator", "scm"],
                                        ["--compare"]])
def test_backtest_overflowing_return_exits_3(tmp_path, capsys, estimators):
    # one daily jump of 1e150 in the second asset, inside a holding period
    prices = tmp_path / "prices.csv"
    _write_price_csv(prices, m=3, t=61)
    rows = _csv_rows(prices)
    for row in rows[46:]:
        row[2] = repr(float(row[2]) * 1e150)
    with open(prices, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "bt"
    code = _run("backtest", "--prices", str(prices), *estimators,
                "--window-days", "30", "--rebalance-days", "5",
                "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: annualized return of the wealth "
                          "series is not finite: inf")
    assert not (out / "result.json").exists()


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
    rows = _csv_rows(out / "order_frequencies.csv")
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


# Tables of panels whose noise is coloured by the AR(1) Cholesky
# recursion; a change that keeps the draws must not move a count.
_RECORDED_ORDER_TABLES = {
    ("0", "1.0"): "k_hat,scm,tyler_raw,tyler_whitened\r\n0,0,0,6\r\n"
                  "1,0,0,0\r\n2,0,0,0\r\n3,0,0,0\r\n4,0,1,0\r\n"
                  "5,6,3,0\r\n6,0,2,0\r\n",
    ("3", "0.6"): "k_hat,scm,tyler_raw,tyler_whitened\r\n0,0,0,0\r\n"
                  "1,0,0,0\r\n2,0,0,0\r\n3,2,6,6\r\n4,3,0,0\r\n"
                  "5,1,0,0\r\n",
}


@pytest.mark.parametrize("k, snr", list(_RECORDED_ORDER_TABLES))
def test_mc_order_table_bytes_are_unchanged(tmp_path, k, snr):
    out = tmp_path / "mc"
    assert _run("mc-order", "--m", "30", "--N", "200", "--K", k,
                "--rho", "0.6", "--nu", "0.5", "--factor-snr", snr,
                "--trials", "6", "--seed", "40", "--no-demean",
                "--out", str(out)) == 0
    assert ((out / "order_frequencies.csv").read_bytes()
            == _RECORDED_ORDER_TABLES[k, snr].encode())


# The benchmark's fixed block of order-null trials; at m=100 the sweeps
# and the whitener take the blocked triangular inverse, so a change to it
# that moves a count shows here.
_RECORDED_M100_ORDER_TABLE = (
    "k_hat,scm,tyler_raw,tyler_whitened\r\n0,0,0,40\r\n"
    + "".join(f"{k},0,0,0\r\n" for k in range(1, 14))
    + "14,8,3,0\r\n15,27,32,0\r\n16,5,5,0\r\n")


def test_mc_order_table_bytes_at_m100_are_unchanged(tmp_path):
    out = tmp_path / "mc"
    assert _run("mc-order", "--m", "100", "--N", "1000", "--K", "0",
                "--rho", "0.8", "--nu", "0.5", "--trials", "40",
                "--seed", "10001", "--no-demean", "--out", str(out)) == 0
    assert ((out / "order_frequencies.csv").read_bytes()
            == _RECORDED_M100_ORDER_TABLE.encode())


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


def test_every_settings_flag_names_a_config_key():
    # ``_settings`` reads only the flags named by config keys, so any other
    # flag would be accepted and do nothing
    keys = {key for section in cli._SECTION_KEYS.values() for key in section}
    own = {"config", "out", "input", "prices", "compare", "missing_policy",
           "command", "help"}
    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    for name, sub in subs.choices.items():
        stray = {action.dest for action in sub._actions} - keys - own
        assert not stray, f"{name}: {sorted(stray)}"


_COMMON_FLAGS = {"-h": "_HelpAction", "--help": "_HelpAction",
                 "--config": "str", "--out": "str"}
_SYNTH_FLAGS = {"--seed": "int", "--m": "int", "--N": "int", "--K": "int",
                "--rho": "float", "--nu": "float", "--factor-snr": "float"}
_CLEAN_FLAGS = {"--demean": "BooleanOptionalAction",
                "--no-demean": "BooleanOptionalAction", "--tol": "float",
                "--max-iter": "int"}
# Every option string of every subcommand, with its type (a store action)
# or its action class
_CLI_SURFACE = {
    "synth": {**_COMMON_FLAGS, **_SYNTH_FLAGS},
    "clean": {**_COMMON_FLAGS, "--input": "str", **_CLEAN_FLAGS},
    "allocate": {**_COMMON_FLAGS, "--input": "str", "--estimator": "str",
                 **_CLEAN_FLAGS},
    "backtest": {**_COMMON_FLAGS, "--prices": "str", "--estimator": "str",
                 "--compare": "_StoreTrueAction", "--window-days": "int",
                 "--rebalance-days": "int", "--annualization-days": "float",
                 "--missing-policy": "str", "--benchmark": "str",
                 **_CLEAN_FLAGS},
    "mc-order": {**_COMMON_FLAGS, "--trials": "int", **_SYNTH_FLAGS,
                 **_CLEAN_FLAGS},
}


def test_every_subcommand_has_exactly_its_pinned_flags():
    def kind(action):
        if type(action) is argparse._StoreAction:
            return (action.type or str).__name__
        return type(action).__name__

    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    got = {name: {option: kind(action) for action in sub._actions
                  for option in action.option_strings}
           for name, sub in subs.choices.items()}
    assert got == _CLI_SURFACE


def test_main_builds_one_parser_and_dispatches_by_name(tmp_path,
                                                       monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    synth = ("synth", "--m", "3", "--N", "5", "--seed", "1", "--out")
    assert _run(*synth, str(tmp_path / "a")) == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_synth", ran.append)
    assert _run(*synth, str(tmp_path / "b")) == 0
    assert builds == [1]
    assert [args.command for args in ran] == ["synth"]
    assert not (tmp_path / "b").exists()


def test_failed_json_write_leaves_no_temporary_file(tmp_path):
    # renaming onto a directory fails after the temporary file is written
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(UsageError, match="report.json"):
        cli._atomic_write_json(target, {"k_hat": 0})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


# an existing file, or a name too long for mkdir (ENAMETOOLONG)
@pytest.mark.parametrize("name", ["taken", "x" * 300])
def test_synth_out_that_cannot_be_made_is_usage_error(tmp_path, capsys, name):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = tmp_path / name
    code = _run("synth", "--m", "3", "--N", "5", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot create output directory")
    assert str(out) in err
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
    errors.IngestionError: (2, "data error: "),
    errors.NumericalError: (3, "numerical error: "),
    errors.DegenerateDataError: (3, "numerical error: "),
    errors.ConvergenceError: (3, "numerical error: "),
}


def test_exit_code_table_names_every_error_class():
    defined = {cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.MaxVarietyError)}
    assert set(_error_classes()) == defined == set(_EXIT_CODES)


@pytest.mark.parametrize("error", list(_EXIT_CODES),
                         ids=lambda cls: cls.__name__)
def test_each_error_class_maps_to_its_exit_code(tmp_path, capsys,
                                                monkeypatch, error):
    def fail(args):
        raise error("planted failure")

    status, prefix = _EXIT_CODES[error]
    for argv in (["synth"], ["allocate", "--input", "in.csv"]):
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", fail)
        assert _run(*argv, "--out", str(tmp_path / "out")) == status
        assert capsys.readouterr().err == f"{prefix}planted failure\n"
    assert not (tmp_path / "out").exists()
