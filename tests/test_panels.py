"""Return panel container and CSV round-trip tests."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import maxvariety
from maxvariety import (IngestionError, ParameterError, ReturnsPanel,
                        load_returns_csv, save_returns_csv)


def test_only_panels_imports_csv():
    # every CSV layout lives in panels.py; other modules go through it
    importers = set()
    for path in Path(maxvariety.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                importers.add(path.name)
    assert importers == {"panels.py"}


def _panel():
    rng = np.random.default_rng(0)
    return ReturnsPanel(rng.standard_normal((3, 5)),
                        labels=["AAA", "BBB", "CCC"])


def test_default_labels_and_timestamps():
    panel = ReturnsPanel(np.zeros((2, 4)))
    assert panel.labels == ["A000", "A001"]
    assert panel.timestamps == ["0", "1", "2", "3"]


def test_label_count_must_match():
    with pytest.raises(ParameterError):
        ReturnsPanel(np.zeros((2, 3)), labels=["only-one"])
    with pytest.raises(ParameterError):
        ReturnsPanel(np.zeros((2, 3)), timestamps=["0", "1"])


def test_csv_round_trip_columns(tmp_path):
    panel = _panel()
    path = tmp_path / "returns.csv"
    save_returns_csv(panel, path)
    loaded = load_returns_csv(path)
    np.testing.assert_array_equal(loaded.values, panel.values)
    assert loaded.labels == panel.labels
    assert loaded.timestamps == panel.timestamps


def test_csv_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,AAA,BBB\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(IngestionError, match=r"row 3, column 2"):
        load_returns_csv(path)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,AAA,BBB\n0,1.0\n")
    with pytest.raises(IngestionError, match="row 2"):
        load_returns_csv(path)


def test_csv_missing_file():
    with pytest.raises(IngestionError):
        load_returns_csv("/nonexistent/returns.csv")


def test_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,AAA\n")
    with pytest.raises(IngestionError, match="no observations"):
        load_returns_csv(path)
