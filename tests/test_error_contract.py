"""No generated input escapes as anything but a MaxVarietyError.

CSV texts go to both loaders and finite panels to the estimators and the
optimizer; each call may return or raise ``MaxVarietyError``, and any other
exception fails the property.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from maxvariety import (CleanConfig, MaxVarietyError, clean_covariance,
                        load_prices, load_returns_csv, optimize_variety, scm,
                        tyler)

# cells that break a table: non-numbers, non-finite or out-of-range
# numbers, quotes, NUL, BOM, CR, bad dates and arbitrary short text
_BAD_CELLS = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "", " ", "-5", "0",
    "1e-300", " 3 ", '"', '"0.1"', '"a,b"', '""', "\x00", "\ufeff", "\r",
    "\r\n", "abc", "0x1p3", "1_000", "2020-13-01", "2020-02-30",
    "2020-01-10", "20200105", "t"]) | st.text(max_size=4)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    """A table both loaders accept, then up to three spoils: a bad cell,
    a short or long row, or a stray line end."""
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    rows = [[draw(st.sampled_from(["t", "Date", "", '"Date"']))]
            + [f"A{i}" for i in range(width - 1)]]
    for row in range(draw(st.integers(0, 6))):
        rows.append([f"2020-01-{row + 10}"]
                    + [draw(st.sampled_from(["0.5", "1.25", "2e-2", "100"]))
                       for _ in range(width - 1)])
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        spoil = draw(st.sampled_from(["cell", "cell", "short", "long"]))
        if spoil == "short":
            del row[-1:]
        elif spoil == "long":
            row.append(draw(st.sampled_from(["0.5", ""])))
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
    end = draw(_LINE_ENDS)
    text = end.join(",".join(row) for row in rows)
    text += draw(st.sampled_from(["", end, end + end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
def test_csv_loaders_return_or_raise_maxvariety_errors(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for load in (load_returns_csv, load_prices):
        try:
            load(path)
        except MaxVarietyError:
            pass


@st.composite
def _panels(draw):
    """Finite m x N panels, m 1-6 and N 1-14, scaled from 1e-300 to 1e300,
    with a few cells set to 0, +-1e-300, +-1e+-160 or +-1e300."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 14) | st.integers(m + 1, 14))
    if draw(st.booleans()):
        panel = draw(arrays(float, (m, n), elements=st.floats(-10.0, 10.0)))
    else:  # generic entries: hypothesis favours 0 and repeats
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        panel = rng.standard_normal((m, n))
    panel *= draw(st.sampled_from([1.0, 1.0, 1e-300, 1e-160, 1e160, 1e300]))
    for _ in range(draw(st.integers(0, 3))):
        panel[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = (
            draw(st.sampled_from([0.0, 1e-300, -1e-300, 1e-160, -1e-160,
                                  1e160, -1e160, 1e300, -1e300])))
    return panel


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100)
@given(panel=_panels())
def test_estimators_and_optimizer_return_or_raise_maxvariety_errors(panel):
    calls = [lambda: clean_covariance(panel, CleanConfig(demean=True)),
             lambda: clean_covariance(panel, CleanConfig(demean=False)),
             lambda: tyler(panel),
             lambda: optimize_variety(scm(panel).values)]
    for call in calls:
        try:
            call()
        except MaxVarietyError:
            pass
