"""Tabular dataset type, CSV round-tripping, the built-in sample data, and
scatter-series extraction for plotting.

Columns are named; ``NOL`` and ``LOC`` alias each other everywhere a column
is looked up, since both names are in circulation for the same measure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence, TextIO

from .errors import (
    MalformedRowError, NonNumericError, NonPositiveValueError,
    UnknownColumnError,
)

# Symmetric alias table: a lookup for either name finds a column named the other.
COLUMN_ALIASES = {"LOC": "NOL", "NOL": "LOC"}


def find_name(name: str, names: Collection[str],
              missing: Callable[[str], Exception]) -> str:
    """The first of ``name`` and its alias in ``names``, else missing(name)."""
    for candidate in (name, COLUMN_ALIASES.get(name)):
        if candidate in names:
            return candidate
    raise missing(name)


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable table of finite floats, stored by column, with a row count
    and a provenance tag.  ``rows`` is rebuilt from the columns on each read."""

    columns: tuple[str, ...]
    _values: tuple[tuple[float, ...], ...]
    n_rows: int
    provenance: str

    def __init__(self, columns: Iterable[str], rows: Iterable[Iterable[float]],
                 provenance: str = "unspecified"):
        columns = tuple(columns)
        for name in columns:
            if not isinstance(name, str):
                raise TypeError(f"Dataset: columns holds {name!r}, not a str")
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns!r}")
        width = len(columns)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"row {i} has {len(row)} values, expected {width}")
            for name, v in zip(columns, row):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value {v!r} in column {name!r}")
        # A table without rows still has its (empty) columns.
        self.__dict__.update(columns=columns, n_rows=len(rows),
                             _values=tuple(zip(*rows)) or ((),) * width,
                             provenance=provenance)

    @classmethod
    def _of_columns(cls, columns: tuple[str, ...],
                    values: tuple[tuple[float, ...], ...], n_rows: int,
                    provenance: str) -> Dataset:
        """Unchecked: ``values`` holds n_rows finite floats per column."""
        data = cls.__new__(cls)
        data.__dict__.update(columns=columns, _values=values, n_rows=n_rows,
                             provenance=provenance)
        return data

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*self._values)) or ((),) * self.n_rows

    def resolve(self, name: str) -> str:
        """Map a requested column name to the stored one, honoring aliases."""
        return find_name(name, self.columns, UnknownColumnError)

    def column(self, name: str) -> tuple[float, ...]:
        return self._values[self.columns.index(self.resolve(name))]


# 33 samples of (NOL, NOC, NOM, NOA): source lines, classes, methods,
# attributes per system.  Values are fixed; the column sums below guard
# against accidental edits.
_TABLE1_ROWS = (
    (15837, 65, 1446, 537),
    (23570, 57, 1535, 876),
    (47106, 91, 2141, 1178),
    (23154, 51, 1420, 538),
    (20747, 154, 2814, 1113),
    (44930, 92, 2224, 1132),
    (28582, 71, 1978, 839),
    (19254, 69, 1815, 675),
    (20085, 74, 1876, 700),
    (57086, 140, 322, 81),
    (92231, 201, 481, 124),
    (167541, 355, 735, 204),
    (261260, 562, 1193, 297),
    (838128, 1966, 3227, 611),
    (2062982, 5107, 6735, 2297),
    (2129555, 5035, 7292, 2294),
    (1948354, 4566, 5975, 2095),
    (64492, 222, 210, 81),
    (70514, 243, 229, 88),
    (113919, 349, 325, 132),
    (177356, 565, 516, 185),
    (6593, 324, 1310, 60),
    (1023, 25, 103, 220),
    (1729, 20, 134, 185),
    (50000, 46, 2025, 510),
    (300000, 1000, 11000, 10960),
    (500000, 1617, 37191, 17141),
    (9189, 339, 1993, 4022),
    (7102, 45, 711, 482),
    (830, 10, 175, 89),
    (1602, 26, 180, 247),
    (3451, 18, 170, 145),
    (549, 15, 33, 172),
)

TABLE1_COLUMN_SUMS = {"NOL": 9108751, "NOC": 23520, "NOM": 99514, "NOA": 50310}


def builtin_table1() -> Dataset:
    """The embedded 33-system sample with columns NOL, NOC, NOM, NOA."""
    return Dataset(columns=("NOL", "NOC", "NOM", "NOA"),
                   rows=_TABLE1_ROWS, provenance="paper-table-1")


def read_csv(source: Iterable[str], provenance: str = "csv") -> Dataset:
    """Parse header + numeric rows into a Dataset.

    Line numbers in errors are 1-based over the input lines.  A header-only
    input yields a valid 0-row dataset; a blank header line is an error.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRowError(1, "input is empty, expected a header line") from None
    # A blank line reads as [], and is one empty name, like a line of spaces.
    columns = tuple(name.strip() for name in header or [""])
    seen: set[str] = set()
    for name in columns:
        if not name:
            raise MalformedRowError(1, "header contains an empty column name")
        if name in seen:
            raise MalformedRowError(1, f"duplicate column name {name!r}")
        if COLUMN_ALIASES.get(name) in seen:
            raise MalformedRowError(
                1, f"columns {COLUMN_ALIASES[name]!r} and {name!r} are aliases "
                "of one measure")
        seen.add(name)
    values: list[list[float]] = [[] for _ in columns]
    for fields in reader:
        line = reader.line_num
        if not fields:
            continue
        if len(fields) != len(columns):
            raise MalformedRowError(
                line, f"expected {len(columns)} fields, got {len(fields)}")
        for name, text, column in zip(columns, fields, values):
            try:
                v = float(text)
            except ValueError:
                raise NonNumericError(line, name, text) from None
            if not math.isfinite(v):
                raise NonNumericError(line, name, text)
            column.append(v)
    return Dataset._of_columns(columns, tuple(map(tuple, values)),
                               len(values[0]), provenance)


def _render_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def write_csv(data: Dataset, sink: TextIO) -> None:
    """Emit the dataset as CSV; read_csv(write_csv(d)) reproduces d.

    Integral values are written without a decimal point; others with repr,
    which round-trips floats exactly.
    """
    sink.write(",".join(data.columns) + "\n")
    for row in data.rows:
        sink.write(",".join(_render_value(v) for v in row) + "\n")


@dataclass(frozen=True)
class ScatterSeries:
    """Point set for one y column against a shared x column."""

    x_name: str
    y_name: str
    points: tuple[tuple[float, float], ...]
    log10: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))


def log_columns(data: Dataset, names: Sequence[str],
                log_fn: Callable[[float], float]) -> tuple[tuple[float, ...], ...]:
    """log_fn of each named column.  A value <= 0 raises
    NonPositiveValueError for the first one in row order over ``names``."""
    try:
        return tuple(tuple(map(log_fn, data.column(name))) for name in names)
    except ValueError:
        # math's logs raise for exactly the values <= 0.
        for i, row in enumerate(zip(*map(data.column, names))):
            for name, v in zip(names, row):
                if v <= 0:
                    raise NonPositiveValueError(i, name, v) from None


def scatter(data: Dataset, x: str, ys: Sequence[str],
            log10: bool = False) -> list[ScatterSeries]:
    """One series per y column; log10 transforms both coordinates.

    Row order and count carry through unchanged.  Under log10, any value
    <= 0 in a requested column is an error naming its row and column.
    """
    x_col = data.resolve(x)
    y_cols = [data.resolve(y) for y in ys]
    series: list[ScatterSeries] = []
    for y_col in y_cols:
        if log10:
            xs, y_vals = log_columns(data, (x_col, y_col), math.log10)
        else:
            xs, y_vals = data.column(x_col), data.column(y_col)
        series.append(ScatterSeries(x_name=x_col, y_name=y_col,
                                    points=tuple(zip(xs, y_vals)), log10=log10))
    return series


def _xml_text(text: str) -> str:
    """Escape &, < and > for an XML text node, as xml.sax.saxutils.escape
    does; importing that module pulls in urllib.request and http.client."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(values: list[float], start: float,
          length: float) -> Callable[[float], float]:
    """Map the padded [min, max] of ``values`` onto start + [0, length];
    a negative length runs up the canvas.

    The arithmetic runs on quarters of the values: quartering a normal
    double is exact, so the pixels are those of the plain formula, and no
    difference, even between -max and +max double, overflows.  Equal values
    pad by 5% of their size, at least 1, so that the pad never rounds away.
    """
    lo, hi = min(values, default=0.0) / 4, max(values, default=0.0) / 4
    pad = (hi - lo) * 0.05 or max(0.25, abs(lo) * 0.05)
    lo, hi = lo - pad, hi + pad
    return lambda v: start + (v / 4 - lo) / (hi - lo) * length


def svg_scatter(series: ScatterSeries) -> str:
    """Render one series as a standalone 640x480 SVG with labeled axes.

    Layout is presentation plumbing: fixed margins, 3px points, min/max
    data bounds padded 5%.  Output is deterministic for a given series.
    """
    width, height = 640, 480
    margin = 50
    sx = _axis([p[0] for p in series.points], margin, width - 2 * margin)
    sy = _axis([p[1] for p in series.points], height - margin,
               2 * margin - height)

    suffix = " (log10)" if series.log10 else ""
    x_label = _xml_text(series.x_name + suffix)
    y_label = _xml_text(series.y_name + suffix)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{x_label}</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 16 {height // 2})">{y_label}</text>',
    ]
    for px, py in series.points:
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
