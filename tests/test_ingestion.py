"""Differential tests of the returns and price CSV loaders.

Each loader parses a plain CSV in one ``np.loadtxt`` pass and walks the
cells one by one only for other files.  The cell walks below are the
loaders as they were before that fast path, kept as the reference: on any
text, the loader must return bit-identical panels or raise the same error
with the same message.
"""

from __future__ import annotations

import csv
import datetime
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maxvariety
import maxvariety.panels as panels
from maxvariety import (IngestionError, MaxVarietyError, PricePanel,
                        ReturnsPanel, load_prices, load_returns_csv,
                        save_returns_csv)


def _reference_load_returns_csv(path):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise IngestionError(f"cannot read returns file {path}: {exc}") from exc
    with fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2:
        raise IngestionError(f"{path}: missing header row")
    header = rows[0]
    body = rows[1:]
    if not body:
        raise IngestionError(f"{path}: no observations")
    width = len(header)
    cells = np.empty((len(body), width - 1), dtype=float)
    keys = []
    for r, row in enumerate(body, start=2):
        if len(row) != width:
            raise IngestionError(
                f"{path}: row {r} has {len(row)} fields, expected {width}")
        keys.append(row[0])
        for c, text in enumerate(row[1:], start=2):
            try:
                cells[r - 2, c - 2] = float(text)
            except ValueError as exc:
                raise IngestionError(
                    f"{path}: row {r}, column {c} ({header[c - 1]!r}): "
                    f"not a number: {text!r}") from exc
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        r, c = bad[0]
        raise IngestionError(
            f"{path}: row {r + 2}, column {c + 2} ({header[c + 1]!r}): "
            f"not finite: {body[r][c + 1]!r}")
    return ReturnsPanel(cells.T, labels=header[1:], timestamps=keys)


def _reference_load_prices(path, missing_policy="error"):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise IngestionError(f"cannot read price file {path}: {exc}") from exc
    with fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2:
        raise IngestionError(f"{path}: missing header row with asset labels")
    labels = rows[0][1:]
    # blank rows are skipped but keep their line in the row numbers
    body = [(r, row) for r, row in enumerate(rows[1:], start=2) if row]
    if len(body) < 1:
        raise IngestionError(f"{path}: no price rows")

    dates = []
    prices = np.empty((len(labels), len(body)))
    fill_counts = {label: 0 for label in labels}
    for r, row in body:
        if len(row) != len(labels) + 1:
            raise IngestionError(
                f"{path}: row {r} has {len(row)} fields, "
                f"expected {len(labels) + 1}")
        try:
            day = datetime.date.fromisoformat(row[0])
        except ValueError as exc:
            raise IngestionError(
                f"{path}: row {r}: bad date {row[0]!r}") from exc
        if dates and day <= dates[-1]:
            raise IngestionError(
                f"{path}: row {r}: date {day} not after {dates[-1]}")
        dates.append(day)
        t = len(dates) - 1
        for c, text in enumerate(row[1:]):
            label = labels[c]
            if text.strip() == "":
                if missing_policy == "error" or t == 0:
                    raise IngestionError(
                        f"{path}: row {r}, column {label!r}: missing price")
                prices[c, t] = prices[c, t - 1]
                fill_counts[label] += 1
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise IngestionError(
                    f"{path}: row {r}, column {label!r}: "
                    f"not a number: {text!r}") from exc
            if not math.isfinite(value):
                raise IngestionError(
                    f"{path}: row {r}, column {label!r}: "
                    f"not finite: {text!r}")
            if value <= 0.0:
                raise IngestionError(
                    f"{path}: row {r}, column {label!r}: "
                    f"non-positive price {value!r}")
            prices[c, t] = value
    return PricePanel(dates=dates, prices=prices, labels=labels,
                      fill_counts=fill_counts)


def _outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except MaxVarietyError as exc:
        return type(exc), str(exc)


def _same_array(got, want):
    # memory order too: a transposed layout can change BLAS summation
    # order downstream, and with it the bytes of every artifact
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.flags.f_contiguous == want.flags.f_contiguous
            and got.tobytes() == want.tobytes())


def _assert_loaders_agree(path):
    got = _outcome(load_returns_csv, path)
    want = _outcome(_reference_load_returns_csv, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.values.flags.c_contiguous
        assert _same_array(got.values, want.values)
        assert got.labels == want.labels
        assert got.timestamps == want.timestamps
    for policy in ("error", "forward_fill"):
        got = _outcome(load_prices, path, missing_policy=policy)
        want = _outcome(_reference_load_prices, path, missing_policy=policy)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _same_array(got.prices, want.prices)
            assert got.labels == want.labels
            assert got.dates == want.dates
            assert got.fill_counts == want.fill_counts


PLAIN = "Date,AAA,BBB\n2024-01-02,1.5,2.0\n2024-01-03,1.25,0.5\n"

EXAMPLES = {
    "plain_lf": PLAIN,
    "plain_crlf": PLAIN.replace("\n", "\r\n"),
    "no_final_line_end": PLAIN.rstrip("\n"),
    "lone_cr": PLAIN.replace("\n", "\r"),
    "lone_cr_inside_row": "Date,AAA,BBB\n2024-01-02,1.0\r,2.0\n",
    "mixed_line_ends": "Date,AAA\r\n2024-01-02,1.0\n2024-01-03,2.0\r\n",
    "blank_line_inside": "Date,AAA\n2024-01-02,1.0\n\n2024-01-03,2.0\n",
    "blank_lines_at_end": "Date,AAA\n2024-01-02,1.0\n2024-01-03,2.0\n\n\n",
    "only_blank_body": "Date,AAA\n\n",
    "only_blank_body_crlf": "Date,AAA\r\n\r\n\r\n",
    "header_only": "Date,AAA\n",
    "one_field_header": "Date\n2024-01-02\n",
    "quoted_key": 'Date,AAA\n"2024-01-02",1.0\n',
    "quoted_key_with_comma": 'Date,AAA\n"2024-01-02,x",1.0\n',
    "quoted_label_with_comma": 'Date,"A,A",BBB\n2024-01-02,1.0,2.0\n',
    "quoted_label_with_line_end": 'Date,"A\nA",BBB\n2024-01-02,1.0,2.0\n',
    "unclosed_quote_in_header": 'Date,"AAA\n2024-01-02,1.0\n',
    "stray_quote_in_header": 'Date,"AA"A\n2024-01-02,1.0\n',
    "lone_cr_after_header": "Date,AAA\r2024-01-02,1.0\n2024-01-03,2.0\n",
    "quoted_cell": 'Date,AAA\n2024-01-02,"1.0"\n',
    "underscore_digit": "Date,AAA\n2024-01-02,1_0\n",
    "leading_space": "Date,AAA\n2024-01-02, 1.5\n",
    "trailing_space": "Date,AAA\n2024-01-02,1.5 \n",
    "nan_cell": "Date,AAA\n2024-01-02,1.0\n2024-01-03,nan\n",
    "minus_inf_cell": "Date,AAA\n2024-01-02,-inf\n",
    "overflowing_cell": "Date,AAA\n2024-01-02,1e500\n",
    "empty_cell": "Date,AAA,BBB\n2024-01-02,1.0,2.0\n2024-01-03,,3.0\n",
    "blank_cell": "Date,AAA,BBB\n2024-01-02,1.0,2.0\n2024-01-03, ,3.0\n",
    "leading_empty_cell": "Date,AAA\n2024-01-02,\n2024-01-03,1.0\n",
    "extra_field": "Date,AAA\n2024-01-02,1.0,2.0\n",
    "missing_field": "Date,AAA,BBB\n2024-01-02,1.0\n",
    "extra_field_later": "Date,AAA\n2024-01-02,1.0\n2024-01-03,1.0,2.0\n"
                         "2024-01-04,1.0\n",
    "missing_field_later": "Date,AAA,BBB\n2024-01-02,1.0,2.0\n"
                           "2024-01-03,1.0\n2024-01-04,1.0,2.0\n",
    "extra_field_and_blank_line": "Date,AAA\n2024-01-02,1.0,2.0\n\n",
    "zero_price": "Date,AAA\n2024-01-02,0\n",
    "negative_price": "Date,AAA\n2024-01-02,1.0\n2024-01-03,-2.5\n",
    "repeated_date": "Date,AAA\n2024-01-02,1.0\n2024-01-02,2.0\n",
    "unordered_dates": "Date,AAA\n2024-01-03,1.0\n2024-01-02,2.0\n",
    "bad_date": "Date,AAA\n2024-13-02,1.0\n",
    "not_a_number": "Date,AAA\n2024-01-02,abc\n",
    "hash_cell": "Date,AAA\n2024-01-02,#1\n",
    "non_ascii_digit": "Date,AAA\n2024-01-02,١\n",
}


# a loader warns on none of them (loadtxt does on a body of blank lines)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_loaders_match_reference(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    _assert_loaders_agree(path)


GOOD_CELLS = st.floats(min_value=1e-3, max_value=1e3).map(repr)
ODD_CELLS = st.sampled_from(["1_0", " 1.5", "nan", "-inf", "1e500", "", " ",
                             "0", "-2.5", "abc", "1.5 ", "+1"])


@st.composite
def csv_texts(draw):
    """Price-like CSV text: a clean table, or one with odd cells, keys,
    field counts, line ends and blank lines."""
    odd = draw(st.booleans())
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    cell = st.one_of(GOOD_CELLS, ODD_CELLS) if odd else GOOD_CELLS
    labels = [f"A{i}" for i in range(m)]
    if odd:
        labels[0] = draw(st.sampled_from(["A0", '"A,0"', '"A\n0"', 'A"0']))
    lines = ["Date," + ",".join(labels)]
    day = datetime.date(2024, 1, 2)
    for _ in range(n):
        # a zero step repeats the date
        day += datetime.timedelta(days=draw(st.integers(int(not odd), 2)))
        key = day.isoformat()
        width = m
        if odd:
            key = draw(st.sampled_from([key, key, f'"{key}"', f'"{key},x"',
                                        "2024-13-01"]))
            width += draw(st.sampled_from([0, 0, -1, 1]))
        lines.append(",".join([key] + [draw(cell) for _ in range(width)]))
    if odd:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    ends = ["\n", "\r\n", "\r"]
    if odd and draw(st.booleans()):
        return "".join(line + draw(st.sampled_from(ends)) for line in lines)
    end = draw(st.sampled_from(ends))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=300)
@given(text=csv_texts())
def test_loaders_match_reference_on_generated_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode())
    _assert_loaders_agree(path)


# the reference loaders above do not check labels (the price one fails
# only in PricePanel, with a ParameterError), so these files are checked
# here and not in EXAMPLES; a quoted cell sends a file to the walk
REPEATED_LABELS = {
    "returns_one_pass": ("t,A,B,A\n0,1.0,2.0,3.0\n1,0.5,0.1,0.2\n", True),
    "returns_cell_walk": ('t,A,B,A\n0,"1.0",2.0,3.0\n1,0.5,0.1,0.2\n', False),
    "prices_one_pass": ("Date,A,B,A\n2024-01-02,1.0,2.0,3.0\n"
                        "2024-01-03,1.5,2.5,3.5\n", True),
    "prices_cell_walk": ('Date,A,B,A\n2024-01-02,"1.0",2.0,3.0\n'
                         "2024-01-03,1.5,2.5,3.5\n", False),
}


@pytest.mark.parametrize("text, plain", REPEATED_LABELS.values(),
                         ids=REPEATED_LABELS.keys())
def test_repeated_label_is_rejected(tmp_path, text, plain):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    prices = text.startswith("Date")
    key = datetime.date.fromisoformat if prices else str
    assert (panels._read_csv(path, "input", key=key)[1] is not None) == plain
    load = load_prices if prices else load_returns_csv
    with pytest.raises(IngestionError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: label 'A' heads columns 2 and 4"


def test_written_csvs_take_the_one_pass_parser(tmp_path):
    # the cell walk is for bad or unusual files only
    rng = np.random.default_rng(0)
    path = tmp_path / "returns.csv"
    save_returns_csv(ReturnsPanel(rng.standard_normal((3, 7))), path)
    assert b"\r\n" in path.read_bytes()
    assert panels._read_csv(path, "returns")[1] is not None
    prices = Path(__file__).with_name("data") / "prices_fixture.csv"
    assert panels._read_csv(prices, "price",
                            key=datetime.date.fromisoformat)[1] is not None


def test_utf8_is_read_whatever_the_locale(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_bytes("t,Zürich\n0,1.0\n".encode())
    # the C locale without UTF-8 mode reads files as ASCII by default
    paths = [str(Path(maxvariety.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(paths))
    code = ("import sys; from maxvariety import load_returns_csv; "
            "print(ascii(load_returns_csv(sys.argv[1]).labels))")
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ascii(["Zürich"])
    # and the CLI writes the label it read
    path.write_bytes("t,Zürich,Genève\n0,1.0,0.5\n1,-1.0,0.5\n"
                     "2,0.5,-1.0\n".encode())
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "maxvariety.cli", "allocate",
                          "--input", str(path), "--estimator", "scm",
                          "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = (out / "weights.csv").read_bytes().decode("utf-8").splitlines()
    assert [row.split(",")[0] for row in rows] == ["asset", "Zürich", "Genève"]
