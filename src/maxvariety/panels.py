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


@dataclass
class ReturnsPanel:
    """Asset returns, one row per asset and one column per observation.

    Labels must be distinct: a repeated one raises ParameterError naming
    both rows.
    """

    values: np.ndarray
    labels: list[str] = field(default_factory=list)
    timestamps: list[str] = field(default_factory=list)

    def __post_init__(self):
        # row-major whatever the source (a CSV parse gives the transpose):
        # every Tyler sweep runs its panel-wide products on this layout,
        # and equal values then give equal bytes downstream
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ParameterError("returns panel must be a 2-d array")
        m, n = self.values.shape
        if not self.labels:
            self.labels = [f"A{i:03d}" for i in range(m)]
        if not self.timestamps:
            self.timestamps = [str(t) for t in range(n)]
        if len(self.labels) != m:
            raise ParameterError(
                f"{len(self.labels)} labels for {m} assets")
        if len(self.timestamps) != n:
            raise ParameterError(
                f"{len(self.timestamps)} timestamps for {n} observations")
        repeat = _repeat(self.labels)
        if repeat:
            label, a, b = repeat
            raise ParameterError(
                f"label {label!r} names return rows {a} and {b}")


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


def _csv_rows(text: str, path) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(text, newline="")))
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
    """The text of a UTF-8 CSV file, and ``(header, keys, cells)`` if plain.

    Plain: a header line csv reads strictly, then no quote, blank line,
    over-long line or lone CR (loadtxt rejects it), and on each line a
    ``key`` and the header's count of finite numbers; else ``None``.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {what} file {path}: {exc}") from exc
    head = text[:text.find("\n") + 1]
    stream = io.StringIO(head, newline="")
    try:
        header = next(csv.reader(stream, strict=True), [])
    except csv.Error:
        return text, None
    width, lines = len(header), text.split("\n")[1:]
    if lines and not lines[-1]:
        lines.pop()
    if (width < 2 or not lines or stream.read()  # a lone CR ended the header
            or not lines[0].rstrip("\r")  # loadtxt warns on a blank body
            or text.find('"', len(head)) >= 0
            or max(map(len, lines)) > csv.field_size_limit()):
        return text, None
    try:
        cells = np.loadtxt(lines, delimiter=",", converters=_KEY_COLUMN,
                           comments=None, ndmin=2)
        keys = [key(line.partition(",")[0]) for line in lines]
    except ValueError:
        return text, None
    # loadtxt skips blank lines and gives every line the first's field
    # count: the full shape means the header's count on every line
    if cells.shape != (len(lines), width) or not np.isfinite(cells).all():
        return text, None
    return text, (header, keys, cells[:, 1:])


def load_returns_csv(path) -> ReturnsPanel:
    """Read a panel written by :func:`save_returns_csv`.

    Raises :class:`IngestionError` naming the offending row and column when a
    cell is missing, not numeric, or not finite (``nan``, ``inf``), and
    naming both columns when a label heads two.
    """
    content, plain = _read_csv(path, "returns")
    if plain is not None:
        header, keys, cells = plain
    else:
        rows = _csv_rows(content, path)
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
    return ReturnsPanel(cells.T, labels=_labels(header, path), timestamps=keys)


MISSING_POLICIES = ("error", "forward_fill")


@dataclass
class PricePanel:
    """Dated price history, one row per asset and one column per date,
    stored row-major like a :class:`ReturnsPanel`.

    Labels must be distinct: a repeated one raises ParameterError naming
    both rows.
    """

    dates: list[datetime.date]
    prices: np.ndarray
    labels: list[str]
    fill_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.prices = np.ascontiguousarray(self.prices, dtype=float)
        if self.prices.ndim != 2:
            raise ParameterError("prices must be a 2-d array")
        m, t = self.prices.shape
        if len(self.labels) != m:
            raise ParameterError(f"{len(self.labels)} labels for {m} assets")
        repeat = _repeat(self.labels)
        if repeat:
            label, a, b = repeat
            raise ParameterError(
                f"label {label!r} names price rows {a} and {b}")
        if len(self.dates) != t:
            raise ParameterError(f"{len(self.dates)} dates for {t} columns")


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
    content, plain = _read_csv(path, "price", key=datetime.date.fromisoformat)
    if plain is not None:
        header, dates, cells = plain
        if ((cells > 0.0).all()
                and all(a < b for a, b in zip(dates, dates[1:]))):
            labels = _labels(header, path)
            return PricePanel(dates, cells.T, labels, dict.fromkeys(labels, 0))
    rows = _csv_rows(content, path)
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
    """Arithmetic returns; the timestamp of each return is its later date."""
    if panel.prices.shape[1] < 2:
        raise ParameterError("need at least two price dates to form returns")
    ret = panel.prices[:, 1:] / panel.prices[:, :-1] - 1.0
    stamps = [d.isoformat() for d in panel.dates[1:]]
    return ReturnsPanel(ret, labels=list(panel.labels), timestamps=stamps)
