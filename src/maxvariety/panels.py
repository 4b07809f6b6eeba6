"""Return panels and their CSV round trip.

A panel is an m x N matrix with one row per asset and one column per
observation, plus asset labels and per-observation timestamps.  The CSV
layout has observations as rows (header ``t,<label>,<label>,...``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, ParameterError


@dataclass
class ReturnsPanel:
    """Asset returns, one row per asset and one column per observation."""

    values: np.ndarray
    labels: list[str] = field(default_factory=list)
    timestamps: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
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


def save_returns_csv(panel: ReturnsPanel, path) -> None:
    """Write a panel to UTF-8 CSV, one row per observation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(panel.labels))
        for j, stamp in enumerate(panel.timestamps):
            writer.writerow([stamp] + [repr(float(v)) for v in panel.values[:, j]])


def _csv_rows(text: str, path) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise IngestionError(f"{path}: malformed CSV: {exc}") from exc


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
            or text.find('"', len(head)) >= 0
            or max(map(len, lines)) > csv.field_size_limit()
            or text.count(",", len(head)) != (width - 1) * len(lines)):
        return text, None
    try:
        cells = np.loadtxt(lines, delimiter=",", usecols=range(1, width),
                           comments=None, ndmin=2)
        keys = [key(line.partition(",")[0]) for line in lines]
    except ValueError:
        return text, None
    # loadtxt skips blank lines and rejects short ones: with the comma total
    # above, the full shape means the header's field count on every line
    if cells.shape != (len(lines), width - 1) or not np.isfinite(cells).all():
        return text, None
    return text, (header, keys, cells)


def load_returns_csv(path) -> ReturnsPanel:
    """Read a panel written by :func:`save_returns_csv`.

    Raises :class:`IngestionError` naming the offending row and column when a
    cell is missing, not numeric, or not finite (``nan``, ``inf``).
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
    return ReturnsPanel(cells.T, labels=header[1:], timestamps=keys)
