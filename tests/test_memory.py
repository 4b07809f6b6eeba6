"""Peak working set of each panel-sized stage, counted in panels.

A panel is the m x N float64 return matrix, m = 100 and N = 4000 here, so
one panel is 3.2 MB.  ``tracemalloc`` records numpy's array buffers, and
the most it records at once during a call, beyond what was held before
the call, is the stage's working set.  The inputs are made before tracing
starts and are not counted.  Each budget is the count of panel-sized
buffers the stage's arithmetic needs, plus a quarter to half a panel for
its small arrays.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import maxvariety.cli as cli
from maxvariety import (CleanConfig, FactorModelSpec, ReturnsPanel,
                        clean_covariance, gen_panel, load_returns_csv,
                        save_returns_csv, tyler)

M, N = 100, 4000
PANEL_BYTES = M * N * 8


def _peak(call) -> float:
    """The most memory traced at once while ``call()`` runs, beyond what
    was traced before it, in panels."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / PANEL_BYTES
    finally:
        if started:
            tracemalloc.stop()


def _spec(k: int) -> FactorModelSpec:
    return FactorModelSpec(m=M, N=N, K=k, rho=0.8, nu=0.5, factor_snr=10.0,
                           seed=10001)


@pytest.fixture(scope="module", autouse=True)
def _numpy_is_traced(tmp_path_factory):
    # without numpy's buffers every peak would read near zero and each
    # budget would hold whatever the code does
    if _peak(lambda: np.ones((M, N))) < 1.0:
        pytest.skip("tracemalloc does not see numpy's array buffers in "
                    "this build, so the peaks below would measure nothing")
    # one small run of each command first, so that one-time imports and
    # the CLI's parser are not counted
    out = tmp_path_factory.mktemp("warm")
    assert cli.main(["mc-order", "--trials", "1", "--m", "4", "--N", "40",
                     "--out", str(out)]) == 0
    save_returns_csv(ReturnsPanel(gen_panel(FactorModelSpec(4, 40)).returns),
                     out / "returns.csv")
    assert cli.main(["allocate", "--input", str(out / "returns.csv"),
                     "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def returns():
    return gen_panel(_spec(3)).returns


@pytest.fixture(scope="module")
def returns_csv(tmp_path_factory, returns):
    path = tmp_path_factory.mktemp("memory") / "returns.csv"
    save_returns_csv(ReturnsPanel(returns), path)
    return path


@pytest.mark.parametrize("k", [0, 3])
def test_gen_panel_holds_two_panels(k):
    # the directions, then the noise they are mapped to
    assert _peak(lambda: gen_panel(_spec(k))) <= 2.25


def test_tyler_holds_one_workspace(returns):
    assert _peak(lambda: tyler(returns)) <= 1.5


@pytest.mark.parametrize("demean", [False, True])
def test_clean_covariance_holds_two_panels(returns, demean):
    # pass 2: the whitened panel and its Tyler workspace; the demeaned
    # copy is dropped once it is whitened
    config = CleanConfig(demean=demean)
    assert _peak(lambda: clean_covariance(returns, config)) <= 2.75


def test_load_returns_csv_holds_the_lines_and_the_cells(returns_csv):
    # the text (about 2.5 panels of 19-digit cells) and the parsed cells;
    # the text goes before the cells' row-major copy
    assert _peak(lambda: load_returns_csv(returns_csv)) <= 4.0


def test_mc_order_holds_a_panel_and_its_cleaning(tmp_path, capsys):
    argv = ["mc-order", "--trials", "1", "--m", str(M), "--N", str(N),
            "--K", "3", "--rho", "0.8", "--nu", "0.5", "--seed", "10001",
            "--no-demean", "--out", str(tmp_path)]
    assert _peak(lambda: cli.main(argv)) <= 3.75
    assert (tmp_path / "order_frequencies.csv").exists()


def test_allocate_holds_no_more_than_its_parse(tmp_path, capsys,
                                               returns_csv):
    argv = ["allocate", "--input", str(returns_csv), "--no-demean",
            "--out", str(tmp_path)]
    assert _peak(lambda: cli.main(argv)) <= 4.0
    assert (tmp_path / "weights.csv").exists()
