"""Return and price panels, and every CSV file the package reads or writes.

A panel is an m x N matrix with one row per asset and one column per
observation, plus asset labels and per-observation timestamps.  The CSV
layout has observations as rows (header ``t,<label>,<label>,...`` for
returns, ``Date,<label>,...`` for prices).  The other modules write their
CSV artifacts through ``_write_csv``, which writes each row as its fields
joined by commas and hands ``csv.writer`` only a row it would quote.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, ParameterError
from .robust import _check_panel


@dataclass
class ReturnsPanel:
    """Asset returns, one row per asset and one column per observation.

    The values are checked as an estimator's panel is (``_rows``), and
    labels must be distinct: a repeated one raises ParameterError naming
    both rows.
    """

    values: np.ndarray
    labels: list[str] = field(default_factory=list)
    timestamps: list[str] = field(default_factory=list)

    def __post_init__(self):
        # by length: a numpy array of labels or timestamps has no truth value
        labels = self.labels if len(self.labels) else None
        stamps = self.timestamps if len(self.timestamps) else None
        self.values = _rows(self.values, labels, stamps, "return", "timestamps")
        m, n = self.values.shape
        if labels is None:
            self.labels = [f"A{i:03d}" for i in range(m)]
        if stamps is None:
            self.timestamps = [str(t) for t in range(n)]


def _rows(values, labels, stamps, kind: str, what: str) -> np.ndarray:
    """``values`` as a row-major float panel that ``robust._check_panel``
    accepts (2-d, an asset and an observation, finite entries), with one
    distinct label per ``kind`` row and one ``what`` stamp per column
    (None: not checked)."""
    # row-major whatever the source (a CSV parse gives the transpose): Tyler
    # sweeps run on it, and equal values give equal bytes downstream
    values = np.ascontiguousarray(_check_panel(values))
    m, n = values.shape
    if labels is not None and len(labels) != m:
        raise ParameterError(f"{len(labels)} labels for {m} assets")
    if stamps is not None and len(stamps) != n:
        raise ParameterError(f"{len(stamps)} {what} for {n} observations")
    repeat = labels is not None and _repeat(labels)
    if repeat:
        label, a, b = repeat
        raise ParameterError(f"label {label!r} names {kind} rows {a} and {b}")
    return values


def _float_cells(values) -> list[str]:
    """Each value as the shortest text that reads back to the same float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows``, sequences of str and int
    fields, to a UTF-8 CSV file.

    The bytes are those of ``csv.writer``'s default dialect.  A row is
    written as its fields joined by commas unless csv would quote one: a
    field holding a comma (more commas than separators), a quote, CR or LF,
    or a row of one empty field, which csv writes as ``""``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in itertools.chain([header], rows):
            try:
                line = ",".join(row)
            except TypeError:  # an int field, written as str(int) like csv
                row = list(map(str, row))
                line = ",".join(row)
            if (not line or line.count(",") >= len(row) or '"' in line
                    or "\r" in line or "\n" in line):
                writer.writerow(row)
            else:
                fh.write(line + "\r\n")


def save_returns_csv(panel: ReturnsPanel, path) -> None:
    """Write a panel to UTF-8 CSV, one row per observation."""
    _write_csv(path, ["t", *panel.labels],
               ([stamp, *_float_cells(panel.values[:, j])]
                for j, stamp in enumerate(panel.timestamps)))


def _csv_rows(lines, path) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO("".join(lines), newline="")))
    except csv.Error as exc:
        raise IngestionError(f"{path}: malformed CSV: {exc}") from exc


def _repeat(labels):
    """The first label that occurs twice and both its positions, or None."""
    first = {}
    for i, label in enumerate(labels):
        if first.setdefault(label, i) != i:
            return label, first[label], i
    return None


def _labels(header, path) -> list[str]:
    """The asset labels of a CSV header, all fields after the first; a
    label that heads two columns raises IngestionError naming both."""
    repeat = _repeat(header[1:])
    if repeat:
        label, a, b = repeat
        raise IngestionError(
            f"{path}: label {label!r} heads columns {a + 2} and {b + 2}")
    return header[1:]


# loadtxt reads the key column through this and drops it: reading every
# column makes it reject any line whose field count differs from the first's
_KEY_COLUMN = {0: lambda key: 0.0}


def _read_csv(path, what: str, key=str):
    """The lines of a UTF-8 CSV file, each with its LF (joined, they give
    its text), and ``(header, keys, cells)`` if plain.

    Plain: a header line csv reads strictly, then no quote, blank line,
    over-long line or lone CR (loadtxt rejects it), and on each line a
    ``key`` and the header's count of finite numbers; else ``None``.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {what} file {path}: {exc}") from exc
    stream = io.StringIO(lines[0] if lines else "", newline="")
    try:
        header = next(csv.reader(stream, strict=True), [])
    except csv.Error:
        return lines, None
    width, body = len(header), lines[1:]
    if (width < 2 or not body or stream.read()  # a lone CR ended the header
            or not body[0].rstrip("\r\n")  # loadtxt warns on a blank body
            or any('"' in line for line in body)
            or max(len(line) - line.endswith("\n") for line in body)
            > csv.field_size_limit()):
        return lines, None
    try:
        cells = np.loadtxt(body, delimiter=",", converters=_KEY_COLUMN,
                           comments=None, ndmin=2)
        keys = [key(line.partition(",")[0]) for line in body]
    except ValueError:
        return lines, None
    # loadtxt skips blank lines and gives every line the first's field
    # count: the full shape means the header's count on every line
    if cells.shape != (len(body), width) or not np.isfinite(cells).all():
        return lines, None
    return lines, (header, keys, cells[:, 1:])


def load_returns_csv(path) -> ReturnsPanel:
    """Read a panel written by :func:`save_returns_csv`.

    Raises :class:`IngestionError` naming the offending row and column when a
    cell is missing, not numeric, or not finite (``nan``, ``inf``), and
    naming both columns when a label heads two.
    """
    lines, plain = _read_csv(path, "returns")
    if plain is not None:
        header, keys, cells = plain
    else:
        rows = _csv_rows(lines, path)
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
    del lines  # the text goes before the cells' row-major copy is made
    return ReturnsPanel(cells.T, labels=_labels(header, path), timestamps=keys)


MISSING_POLICIES = ("error", "forward_fill")


@dataclass
class PricePanel:
    """Dated price history, one row per asset and one column per date,
    stored row-major and checked like a :class:`ReturnsPanel`.

    Labels must be distinct: a repeated one raises ParameterError naming
    both rows.  Dates must be strictly increasing ``datetime.date`` values
    and prices positive; ParameterError names the first offending date
    index, or the ``(asset, date)`` of the price.
    """

    dates: list[datetime.date]
    prices: np.ndarray
    labels: list[str]
    fill_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.prices = _rows(self.prices, self.labels, self.dates, "price",
                            "dates")
        for t, day in enumerate(self.dates):
            if type(day) is not datetime.date:
                raise ParameterError(f"date {t} is not a datetime.date: "
                                     f"{day!r}")
            if t and day <= self.dates[t - 1]:
                raise ParameterError(f"date {t} ({day}) is not after date "
                                     f"{t - 1} ({self.dates[t - 1]})")
        if not (self.prices > 0.0).all():
            asset, t = np.argwhere(self.prices <= 0.0)[0]
            raise ParameterError(f"price (asset {asset}, date {t}) is not "
                                 f"positive: {float(self.prices[asset, t])!r}")


def load_prices(path, missing_policy: str = "error") -> PricePanel:
    """Read a ``Date,<label>,...`` CSV of prices.

    Labels must be distinct, dates ISO formatted and strictly increasing,
    and prices finite and positive.  Empty cells are errors under the default policy,
    or copied from the previous date under ``forward_fill`` (leading gaps
    are always errors).  Per-asset fill counts are kept on the returned
    panel.  Blank lines are skipped but keep their number in error rows.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ParameterError(f"unknown missing policy {missing_policy!r}")
    lines, plain = _read_csv(path, "price", key=datetime.date.fromisoformat)
    if plain is not None:
        header, dates, cells = plain
        labels = _labels(header, path)
        try:  # a date out of order or a price <= 0: the row walk names it
            return PricePanel(dates, cells.T, labels, dict.fromkeys(labels, 0))
        except ParameterError:
            pass
    rows = _csv_rows(lines, path)
    if not rows or len(rows[0]) < 2:
        raise IngestionError(f"{path}: missing header row with asset labels")
    labels = _labels(rows[0], path)
    body = [(r, row) for r, row in enumerate(rows[1:], start=2) if row]
    if len(body) < 1:
        raise IngestionError(f"{path}: no price rows")

    dates: list[datetime.date] = []
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


def to_returns(panel: PricePanel) -> ReturnsPanel:
    """Arithmetic returns; the timestamp of each return is its later date.

    A return that is not finite (a price ratio that overflows) raises
    IngestionError naming the first such date and its asset.
    """
    if panel.prices.shape[1] < 2:
        raise ParameterError("need at least two price dates to form returns")
    with np.errstate(all="ignore"):
        ret = panel.prices[:, 1:] / panel.prices[:, :-1] - 1.0
    bad = np.argwhere(~np.isfinite(ret.T))
    if bad.size:
        t, asset = bad[0]
        raise IngestionError(
            f"{panel.dates[t + 1]}, column {panel.labels[asset]!r}: return "
            f"from price {float(panel.prices[asset, t])!r} to "
            f"{float(panel.prices[asset, t + 1])!r} is not finite")
    stamps = [d.isoformat() for d in panel.dates[1:]]
    return ReturnsPanel(ret, labels=list(panel.labels), timestamps=stamps)
