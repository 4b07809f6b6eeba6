"""Return panel container and CSV round-trip tests."""

from __future__ import annotations

import ast
import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import maxvariety
from maxvariety import (DegenerateDataError, IngestionError, ParameterError,
                        ReturnsPanel, load_returns_csv, panels,
                        save_returns_csv)


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


def test_panel_shape_and_label_counts_must_match():
    with pytest.raises(ParameterError, match="must be a 2-d array"):
        ReturnsPanel(np.zeros(3))
    # a panel built in code is checked as an estimator checks its panel
    with pytest.raises(ParameterError, match="^panel has no assets$"):
        ReturnsPanel(np.zeros((0, 3)))
    with pytest.raises(ParameterError, match="^panel has no observations$"):
        ReturnsPanel(np.zeros((2, 0)))
    values = np.zeros((2, 3))
    values[1, 2] = np.nan
    # save_returns_csv would write a nan that load_returns_csv refuses
    with pytest.raises(DegenerateDataError,
                       match=r"\(asset 1, observation 2\) is not finite"):
        ReturnsPanel(values)
    with pytest.raises(ParameterError):
        ReturnsPanel(np.zeros((2, 3)), labels=["only-one"])
    with pytest.raises(ParameterError):
        ReturnsPanel(np.zeros((2, 3)), timestamps=["0", "1"])


def test_repeated_label_names_both_rows():
    # save_returns_csv would write a file that load_returns_csv refuses
    with pytest.raises(ParameterError) as caught:
        ReturnsPanel(np.zeros((3, 2)), labels=["A", "B", "A"])
    assert str(caught.value) == "label 'A' names return rows 0 and 2"
    # labels and timestamps given as arrays are checked as lists are
    with pytest.raises(ParameterError, match="names return rows 0 and 2"):
        ReturnsPanel(np.zeros((3, 2)), labels=np.array(["A", "B", "A"]))
    panel = ReturnsPanel(np.ones((2, 3)), labels=np.array(["a", "b"]),
                         timestamps=np.array(["x", "y", "z"]))
    assert list(panel.labels) == ["a", "b"]
    assert list(panel.timestamps) == ["x", "y", "z"]


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


def _csv_writer_bytes(rows) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _write_csv_bytes(path, rows) -> bytes:
    panels._write_csv(path, rows[0], rows[1:])
    return path.read_bytes()


ADVERSARIAL_ROWS = {
    "comma": ["a,b", "c"],
    "quote": ['k"0', "x"],
    "cr": ["a\rb", "c"],
    "lf": ["a\nb", "c"],
    "crlf": ["a\r\nb", "c"],
    "nul": ["a\0b", "\0"],
    "tab": ["a\tb", "\t"],
    "spaces": [" a", "b ", " "],
    "non_ascii": ["\u00e9t\u00e9", "\u6f22\u5b57", "\U0001f600"],
    "empty_fields": ["", "", "x", ""],
    "one_empty_field": [""],
    "no_fields": [],
    "ints": [0, -7, 10**30, "12"],
    "plain": ["t", "0.1", "-0.0", "1e-05"],
}


@pytest.mark.parametrize("row", ADVERSARIAL_ROWS.values(),
                         ids=ADVERSARIAL_ROWS.keys())
def test_write_csv_matches_csv_writer(tmp_path, row):
    rows = [row, ["h", "1"], row, [""], row]
    assert (_write_csv_bytes(tmp_path / "w.csv", rows)
            == _csv_writer_bytes(rows))


@given(st.lists(st.lists(st.one_of(st.text(), st.integers())), min_size=1))
def test_write_csv_matches_csv_writer_on_any_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("writer") / "w.csv"
    assert _write_csv_bytes(path, rows) == _csv_writer_bytes(rows)


EDGE_FLOATS = [0.1, 1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308,
               123456789.0, 0.0001, 2500000000000000.0]


def test_edge_floats_write_fixed_bytes_and_read_back_bit_for_bit(tmp_path):
    panel = ReturnsPanel(np.reshape(EDGE_FLOATS, (3, 3)),
                         labels=["a,b", 'k"0', "c"],
                         timestamps=["a,b", 'k"0', "2"])
    path = tmp_path / "edge.csv"
    save_returns_csv(panel, path)
    assert path.read_bytes() == (
        b't,"a,b","k""0",c\r\n'
        b'"a,b",0.1,-0.0,123456789.0\r\n'
        b'"k""0",1e-05,5e-324,0.0001\r\n'
        b"2,1e+16,1.7976931348623157e+308,2500000000000000.0\r\n")
    loaded = load_returns_csv(path)
    assert loaded.values.view(np.uint64).tolist() == (
        panel.values.view(np.uint64).tolist())
    assert loaded.labels == panel.labels
    assert loaded.timestamps == panel.timestamps
