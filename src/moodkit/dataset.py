"""Tabular dataset type, CSV round-tripping, the built-in sample data, and
scatter-series extraction for plotting.

Columns are named; ``NOL`` and ``LOC`` alias each other everywhere a column
is looked up, since both names are in circulation for the same measure.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from array import array
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Collection, Iterable, Sequence, TextIO

from .errors import (
    MalformedRowError, NonNumericError, NonPositiveValueError,
    UnknownColumnError, _real,
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


def _packed(values: array, width: int) -> tuple[bytes, ...]:
    """Row-major doubles as Dataset stores them: each column as bytes of
    native doubles, 8 per value."""
    return tuple(values[j::width].tobytes() for j in range(width))


def _doubles(packed: bytes) -> memoryview:
    """The values of a packed column, decoded as each is read."""
    return memoryview(packed).cast("d")


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable table of finite floats, stored by column as packed doubles,
    with a row count and a provenance tag.  ``rows`` and ``column`` decode
    the stored values on each read.  Equality and hash take -0.0 as 0.0.

    A column name that is not a str raises TypeError.  Each value goes
    through float(), which raises TypeError or ValueError for one it does
    not take; a repeated name, a row of the wrong width, or a value that is
    not finite or beyond the float range raises ValueError.
    """

    columns: tuple[str, ...]
    # Kept out of the repr: 8 bytes per value would print in full.
    _values: tuple[bytes, ...] = field(repr=False)
    n_rows: int
    provenance: str

    def __init__(self, columns: Iterable[str], rows: Iterable[Iterable[float]],
                 provenance: str = "unspecified"):
        columns = tuple(columns)
        for name in columns:
            if not isinstance(name, str):
                raise TypeError(f"Dataset: columns holds {name!r}, not a str")
        try:
            rows = tuple(tuple(float(v) for v in row) for row in rows)
        except OverflowError:
            raise ValueError("a value is out of the float range") from None
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
        self.__dict__.update(
            columns=columns, n_rows=len(rows), provenance=provenance,
            _values=_packed(array("d", itertools.chain.from_iterable(rows)), width))

    @classmethod
    def _of_rows(cls, columns: tuple[str, ...], values: array, n_rows: int,
                 provenance: str) -> Dataset:
        """Unchecked: ``values`` holds n_rows rows of finite doubles, one
        per column, row after row."""
        data = cls.__new__(cls)
        data.__dict__.update(columns=columns, n_rows=n_rows, provenance=provenance,
                             _values=_packed(values, len(columns)))
        return data

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal bytes are equal values; unequal ones may differ by the sign
        # of a zero, which a decoded comparison ignores, as tuples did.
        return ((self.columns, self.n_rows, self.provenance)
                == (other.columns, other.n_rows, other.provenance)
                and all(a == b or _doubles(a) == _doubles(b)
                        for a, b in zip(self._values, other._values)))

    def __hash__(self):
        # hash(-0.0) == hash(0.0), so datasets equal under == hash alike.
        return hash((self.columns, tuple(map(tuple, map(_doubles, self._values))),
                     self.n_rows, self.provenance))

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*map(_doubles, self._values))) or ((),) * self.n_rows

    def resolve(self, name: str) -> str:
        """Map a requested column name to the stored one, honoring aliases."""
        return find_name(name, self.columns, UnknownColumnError)

    def column(self, name: str) -> tuple[float, ...]:
        """The named column's values, aliases honoured, decoded on each call."""
        return tuple(_doubles(self._packed_column(name)))

    def _packed_column(self, name: str) -> bytes:
        """The named column as stored: bytes of native doubles."""
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
    A byte-order mark at the start of the input is ignored, also before a
    quoted first column name.  Text the CSV reader rejects, such as a bare
    carriage return inside an unquoted field or a field over its size
    limit, is a MalformedRowError.
    """
    lines = iter(source)
    # The mark goes before csv.reader reads the line: left in, it opens an
    # unquoted field, and a quoted first name keeps its quotes.  A line that
    # is not a str is left for csv.reader to reject.
    first = [line.removeprefix("\ufeff") if isinstance(line, str) else line
             for line in itertools.islice(lines, 1)]
    reader = csv.reader(itertools.chain(first, lines))
    try:
        return _read_records(reader, provenance)
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, f"unreadable CSV: {exc}") from None


# Records converted in one bulk call; the last chunk may be shorter.
_CHUNK = 1024


def _read_records(reader, provenance: str) -> Dataset:
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
    # Row-major doubles; each record's line is kept for an error message.
    values = array("d")
    records: list[list[str]] = []
    lines: list[int] = []
    try:
        for fields in reader:
            if fields:
                records.append(fields)
                lines.append(reader.line_num)
                if len(records) == _CHUNK:
                    _convert(records, lines, columns, values)
    except csv.Error:
        # A bad field before the text the reader rejects is named first.
        _convert(records, lines, columns, values)
        raise
    _convert(records, lines, columns, values)
    return Dataset._of_rows(columns, values, len(values) // len(columns),
                            provenance)


def _convert(records: list[list[str]], lines: list[int],
             columns: tuple[str, ...], values: array) -> None:
    """Move the records' fields to the end of values as finite doubles, in
    one bulk conversion, and empty records and lines; or raise for the
    first bad field in row order."""
    if set(map(len, records)) <= {len(columns)}:
        try:
            chunk = list(map(float, itertools.chain.from_iterable(records)))
        except ValueError:
            pass
        else:
            if all(map(math.isfinite, chunk)):
                values.fromlist(chunk)
                records.clear()
                lines.clear()
                return
    _raise_first_fault(records, lines, columns)


def _raise_first_fault(records: list[list[str]], lines: list[int],
                       columns: tuple[str, ...]) -> None:
    """Raise for the first record of the wrong width or field that is not a
    finite number; _convert calls it once a chunk has one."""
    for fields, line in zip(records, lines):
        if len(fields) != len(columns):
            raise MalformedRowError(
                line, f"expected {len(columns)} fields, got {len(fields)}")
        for name, text in zip(columns, fields):
            try:
                v = float(text)
            except ValueError:
                raise NonNumericError(line, name, text) from None
            if not math.isfinite(v):
                raise NonNumericError(line, name, text)


def _render_value(v: float, other=repr) -> str:
    """v without a decimal point if it is integral and below 1e16 in
    magnitude, where every integer is a double; else other(v)."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return other(v)


def csv_lines(rows: Iterable[Iterable]) -> str:
    """rows as CSV text, each line ending in "\\n".  Only a field that needs
    it, such as a name with a comma, a quote or a line break, is quoted.
    csv.writer leaves a carriage return unquoted, so a row holding a field
    with one is quoted in full."""
    buf = io.StringIO()
    minimal = csv.writer(buf, lineterminator="\n")
    full = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in map(tuple, rows):
        cr = any(isinstance(v, str) and "\r" in v for v in row)
        (full if cr else minimal).writerow(row)
    return buf.getvalue()


def write_csv(data: Dataset, sink: TextIO) -> None:
    """Emit the dataset as CSV; read_csv(write_csv(d)) reproduces d.

    Column names are quoted where CSV needs it.  Integral values are
    written without a decimal point; others with repr, which round-trips
    floats exactly.
    """
    sink.write(csv_lines([data.columns]))
    for row in data.rows:
        sink.write(",".join(_render_value(v) for v in row) + "\n")


@dataclass(frozen=True)
class ScatterSeries:
    """Point set for one y column against a shared x column.

    ``points`` is stored as a tuple of float pairs.  An ``x_name`` or
    ``y_name`` that is not a str raises TypeError.  A point that is not a
    pair raises ValueError; a coordinate that is not a real number raises
    TypeError, an int beyond the float range DomainError, and a NaN or
    infinity ValueError.
    """

    x_name: str
    y_name: str
    points: tuple[tuple[float, float], ...]
    log10: bool = False

    def __post_init__(self):
        for name in (self.x_name, self.y_name):
            if not isinstance(name, str):
                raise TypeError(f"ScatterSeries: column name {name!r} is not a str")
        x_label, y_label = (f"a value of column {name!r}"
                            for name in (self.x_name, self.y_name))
        points = []
        for point in self.points:
            if len(point := tuple(point)) != 2:
                raise ValueError(f"ScatterSeries: point {point!r} is not a pair")
            x, y = point
            # Finite floats, all that scatter makes, skip the slower checks.
            if not (type(x) is float and type(y) is float
                    and math.isfinite(x) and math.isfinite(y)):
                x, y = _coordinate(x, x_label), _coordinate(y, y_label)
            points.append((x, y))
        object.__setattr__(self, "points", tuple(points))


def _coordinate(value, label: str) -> float:
    """value as a finite float, or the error ScatterSeries names."""
    if not isinstance(value, Real):
        raise TypeError(f"{label} is {value!r}, not a real number")
    value = _real(value, label)
    if not math.isfinite(value):
        raise ValueError(f"{label} is {value!r}, not finite")
    return value


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
    lo = min(values, default=0.0) / 4
    hi = max(values, default=0.0) / 4
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
