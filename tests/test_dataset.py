import csv
import io
import math
import random
import tracemalloc
from array import array
from xml.etree import ElementTree

import pytest

from moodkit import (
    Dataset, DomainError, MalformedRowError, MoodkitError, NonNumericError,
    NonPositiveValueError, ScatterSeries, UnknownColumnError, builtin_table1,
    read_csv, scatter, svg_scatter, write_csv,
)
from moodkit.dataset import TABLE1_COLUMN_SUMS

from tests.oracles import read_csv_fields


def test_builtin_shape_and_rows():
    data = builtin_table1()
    assert data.columns == ("NOL", "NOC", "NOM", "NOA")
    assert data.n_rows == 33
    assert data.provenance == "paper-table-1"
    assert data.rows[0] == (15837, 65, 1446, 537)
    assert data.rows[15] == (2129555, 5035, 7292, 2294)


def test_repr_names_the_table_not_its_values():
    assert repr(builtin_table1()) == (
        "Dataset(columns=('NOL', 'NOC', 'NOM', 'NOA'), n_rows=33, "
        "provenance='paper-table-1')")
    lines = ["x,y"] + [f"{i},{i % 7}" for i in range(100_000)]
    data = read_csv(lines)
    assert data.n_rows == 100_000
    assert len(repr(data)) < 200


def test_builtin_column_sums_guard():
    # fixed at transcription time; any edit to the table trips this
    data = builtin_table1()
    for name, want in TABLE1_COLUMN_SUMS.items():
        assert sum(data.column(name)) == want


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(columns=("a", "b"), rows=((1.0,),))
    with pytest.raises(ValueError):
        Dataset(columns=("a", "a"), rows=())
    with pytest.raises(ValueError):
        Dataset(columns=("a",), rows=((math.inf,),))
    with pytest.raises(ValueError):
        Dataset(columns=("a",), rows=((math.nan,),))


def test_column_alias_lookup():
    data = builtin_table1()
    assert data.column("LOC") == data.column("NOL")
    assert data.resolve("LOC") == "NOL"
    loc_named = Dataset(columns=("LOC",), rows=((1.0,),))
    assert loc_named.resolve("NOL") == "LOC"
    with pytest.raises(UnknownColumnError):
        data.resolve("XYZ")


def test_read_csv_basic():
    data = read_csv(io.StringIO("NOL,NOC\n10,2\n"))
    assert data.columns == ("NOL", "NOC")
    assert data.rows == ((10.0, 2.0),)


def test_read_csv_header_only():
    data = read_csv(io.StringIO("NOL,NOC\n"))
    assert data.n_rows == 0


def test_read_csv_empty_input():
    with pytest.raises(MalformedRowError):
        read_csv(io.StringIO(""))


@pytest.mark.parametrize("source", [[b"a,b\n", b"1,2\n"], [None]])
def test_read_csv_rejects_a_line_that_is_not_a_str(source):
    with pytest.raises(MalformedRowError, match="unreadable CSV"):
        read_csv(source)


def test_read_csv_field_count_mismatch():
    with pytest.raises(MalformedRowError) as exc:
        read_csv(io.StringIO("a,b\n1,2\n3\n"))
    assert exc.value.line == 3


def test_read_csv_skips_a_blank_line_and_keeps_line_numbers():
    data = read_csv(io.StringIO("a,b\n1,2\n\n3,4\n"))
    assert data.rows == ((1.0, 2.0), (3.0, 4.0))
    with pytest.raises(NonNumericError) as exc:
        read_csv(io.StringIO("a,b\n1,2\n\nx,4\n"))
    assert (exc.value.line, exc.value.column, exc.value.value) == (4, "a", "x")


@pytest.mark.parametrize("text, line", [
    ("f\rg,b\n1,2\n", 1),
    ("a,b\n1,2\n3,x\ry\n", 3),
    ("a,b\n1," + "9" * 200_000 + "\n", 2),
], ids=["cr-in-header", "cr-in-row", "oversized-field"])
def test_read_csv_text_the_csv_reader_rejects_is_malformed(text, line):
    with pytest.raises(MalformedRowError) as exc:
        read_csv(io.StringIO(text))
    assert exc.value.line == line


def test_read_csv_rejects_duplicate_and_aliased_headers():
    for header in ("a,a,y", "NOL,NOC,LOC"):
        with pytest.raises(MalformedRowError) as exc:
            read_csv(io.StringIO(header + "\n1,2,3\n"))
        assert exc.value.line == 1


def test_read_csv_non_numeric():
    with pytest.raises(NonNumericError) as exc:
        read_csv(io.StringIO("NOL\nabc\n"))
    assert exc.value.line == 2
    assert exc.value.column == "NOL"
    assert exc.value.value == "abc"


def test_read_csv_rejects_non_finite_tokens():
    with pytest.raises(NonNumericError):
        read_csv(io.StringIO("a\ninf\n"))
    with pytest.raises(NonNumericError):
        read_csv(io.StringIO("a\nnan\n"))


def test_write_csv_builtin_round_trip_exact():
    data = builtin_table1()
    buf = io.StringIO()
    write_csv(data, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "NOL,NOC,NOM,NOA"
    assert text.splitlines()[1] == "15837,65,1446,537"
    again = read_csv(io.StringIO(text))
    assert again.columns == data.columns
    assert again.rows == data.rows


def test_write_csv_empty_dataset():
    buf = io.StringIO()
    write_csv(Dataset(columns=("a", "b"), rows=()), buf)
    assert buf.getvalue() == "a,b\n"


def test_csv_round_trip_random_floats():
    rng = random.Random(2718)
    for _ in range(50):
        n_cols = rng.randint(1, 5)
        cols = tuple(f"c{i}" for i in range(n_cols))
        rows = tuple(
            tuple(rng.choice([rng.uniform(-1e9, 1e9), float(rng.randint(-500, 500))])
                  for _ in cols)
            for _ in range(rng.randint(0, 12)))
        data = Dataset(columns=cols, rows=rows)
        buf = io.StringIO()
        write_csv(data, buf)
        again = read_csv(io.StringIO(buf.getvalue()))
        assert again.rows == data.rows


def test_write_csv_deterministic():
    data = builtin_table1()
    a, b = io.StringIO(), io.StringIO()
    write_csv(data, a)
    write_csv(data, b)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("names", [
    ("a,b", "c"), ("line\nbreak", "x"), ('"quoted', "y"), ('mid"quote', "a, b"),
], ids=["comma", "newline", "leading-quote", "inner-quote"])
def test_write_csv_round_trips_names_that_need_quoting(names):
    data = Dataset(columns=names, rows=((1.0, 2.5), (3.0, -4.0)))
    buf = io.StringIO()
    write_csv(data, buf)
    again = read_csv(io.StringIO(buf.getvalue()))
    assert again.columns == data.columns
    assert again.rows == data.rows


def test_write_csv_round_trips_a_name_with_a_carriage_return():
    data = Dataset(columns=("x\ry", "b"), rows=((1.0, 2.5),))
    buf = io.StringIO()
    write_csv(data, buf)
    assert buf.getvalue() == '"x\ry","b"\n1,2.5\n'
    again = read_csv(io.StringIO(buf.getvalue()))
    assert again.columns == data.columns and again.rows == data.rows


def test_scatter_linear():
    data = builtin_table1()
    series = scatter(data, "NOL", ["NOC", "NOM", "NOA"])
    assert len(series) == 3
    for s in series:
        assert len(s.points) == 33
        assert not s.log10
    assert series[0].points[0] == (15837.0, 65.0)
    assert series[0].x_name == "NOL" and series[0].y_name == "NOC"


def test_scatter_log10_first_point():
    data = builtin_table1()
    series = scatter(data, "NOL", ["NOC"], log10=True)
    x, y = series[0].points[0]
    assert x == pytest.approx(math.log10(15837.0), rel=1e-12)
    assert y == pytest.approx(math.log10(65.0), rel=1e-12)
    assert y == pytest.approx(1.81291, abs=1e-5)
    assert series[0].log10


def test_scatter_alias_and_errors():
    data = builtin_table1()
    series = scatter(data, "LOC", ["NOC"])
    assert series[0].x_name == "NOL"
    with pytest.raises(UnknownColumnError):
        scatter(data, "NOL", ["missing"])


def test_scatter_log10_rejects_nonpositive():
    data = Dataset(columns=("x", "y"), rows=((1.0, 2.0), (3.0, 0.0)))
    with pytest.raises(NonPositiveValueError) as exc:
        scatter(data, "x", ["y"], log10=True)
    assert exc.value.row == 1 and exc.value.column == "y"


def test_scatter_single_row():
    data = Dataset(columns=("x", "y"), rows=((2.0, 3.0),))
    series = scatter(data, "x", ["y"])
    assert series[0].points == ((2.0, 3.0),)


def test_scatter_double_log_equals_transform_then_scatter():
    from moodkit import log_transform
    data = builtin_table1()
    direct = scatter(data, "NOL", ["NOC"], log10=True)
    transformed = log_transform(data, base10=True)
    indirect = scatter(transformed, "NOL_log10", ["NOC_log10"])
    for (x1, y1), (x2, y2) in zip(direct[0].points, indirect[0].points):
        assert x1 == x2 and y1 == y2


def test_svg_scatter_structure():
    data = builtin_table1()
    series = scatter(data, "NOL", ["NOC"], log10=True)[0]
    svg = svg_scatter(series)
    assert svg.startswith("<svg ")
    assert svg.count("<circle ") == 33
    assert "NOL (log10)" in svg and "NOC (log10)" in svg
    assert svg_scatter(series) == svg


@pytest.mark.parametrize("xs, ys", [
    ((-1.7e308, 1.7e308), (1.0, 2.0)),
    ((1.0, 2.0), (-1.7e308, 1.7e308)),
    ((1e17, 1e17), (-1e300, -1e300)),
    ((1.7e308,), (-1.7e308,)),
])
def test_svg_scatter_coordinates_finite_on_canvas(xs, ys):
    # The span of the extreme doubles overflows, and a pad of 1 vanishes
    # beside 1e17; either way every point must land on the canvas.
    data = Dataset(columns=("x", "y"), rows=tuple(zip(xs, ys)))
    root = ElementTree.fromstring(svg_scatter(scatter(data, "x", ["y"])[0]))
    circles = list(root.iter("{http://www.w3.org/2000/svg}circle"))
    assert len(circles) == len(xs)
    for c in circles:
        assert 50 <= float(c.get("cx")) <= 590
        assert 50 <= float(c.get("cy")) <= 430


@pytest.mark.parametrize("columns", [(1, "y"), ("x", None), (b"x",)])
def test_dataset_rejects_non_str_column_names(columns):
    with pytest.raises(TypeError, match="^Dataset: columns holds "):
        Dataset(columns=columns, rows=())


def test_svg_scatter_escapes_labels():
    data = Dataset(columns=("<b>&", "y"), rows=((1.0, 2.0), (3.0, 5.0)))
    svg = svg_scatter(scatter(data, "<b>&", ["y"])[0])
    root = ElementTree.fromstring(svg)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["<b>&", "y"]


def test_dataset_rejects_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match="float range"):
        Dataset(["a"], [[10**400]])


@pytest.mark.parametrize("points", [((10**400, 1), (1, 2)),
                                    ((1, -10**400), (1, 2))])
def test_svg_scatter_rejects_an_int_beyond_the_float_range(points):
    with pytest.raises(DomainError, match="float range"):
        svg_scatter(ScatterSeries("x", "y", points))


def test_read_csv_ignores_a_byte_order_mark():
    # Also before a quoted first name, which csv.reader would read as an
    # unquoted field opened by the mark.
    for text in ("\ufeffNOL,NOC\n1,2\n", '\ufeff"NOL",NOC\n1,2\n'):
        data = read_csv(io.StringIO(text))
        assert data.columns == ("NOL", "NOC") and data.rows == ((1.0, 2.0),)
        assert data.resolve("LOC") == "NOL"


@pytest.mark.parametrize("point, error, match", [
    ((1,), ValueError, "not a pair"),
    ((1, 2, 3), ValueError, "not a pair"),
    (("a", 1), TypeError, "not a real number"),
    ((1, None), TypeError, "not a real number"),
    ((float("nan"), 1), ValueError, "not finite"),
    ((1, float("-inf")), ValueError, "not finite"),
    ((10**400, 1), DomainError, "float range"),
])
def test_scatter_series_checks_its_points(point, error, match):
    with pytest.raises(error, match=match):
        ScatterSeries("x", "y", ((1, 2), point))


@pytest.mark.parametrize("names", [(None, "y"), ("x", b"y"), (1, "y")])
def test_scatter_series_checks_its_names(names):
    with pytest.raises(TypeError, match="is not a str"):
        ScatterSeries(*names, ((1, 2),))


def test_scatter_series_stores_float_pairs():
    series = ScatterSeries("x", "y", [[1, 2], (3.5, -4)])
    assert series.points == ((1.0, 2.0), (3.5, -4.0))
    assert all(type(v) is float for point in series.points for v in point)


# One fault in a data row: a field float() rejects, one it reads as not
# finite, a row of the wrong width, a bare carriage return inside a field,
# and a field over the CSV reader's size limit.
_FAULTS = ("x", "inf", "nan", "1e999", "width", "cr", "oversized")


def _field(rng) -> str:
    """A field float() takes, spelled as a CSV file may spell it."""
    return rng.choice([
        str(rng.randint(-10**6, 10**6)), repr(rng.uniform(-1e9, 1e9)),
        repr(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-300, 300)),
        "-0.0", "-0", "0", " 7 ", "+3.5", "-.5", "1_000", "1e308", "5e-324"])


def _faulty(rng, fields: list[str], kind: str) -> list[str]:
    if kind == "width":
        return fields[:-1] if len(fields) > 1 and rng.random() < 0.5 else fields + ["1"]
    fields = list(fields)
    fields[rng.randrange(len(fields))] = {
        "cr": "1\r2", "oversized": "9" * (csv.field_size_limit() + 1),
    }.get(kind, kind)
    return fields


def _csv_case(rng, n_rows: int, faults: dict[int, str]) -> tuple[str, list[int]]:
    """CSV text of n_rows random rows, with faults {row: kind} injected, and
    the line on which each row starts.  The text may open with a byte-order
    mark and a quoted two-line name, and holds a few blank lines."""
    width = rng.randint(1, 5)
    names = [f"c{j}" for j in range(width)]
    if rng.random() < 0.5:
        names[rng.randrange(width)] = '"two\nlines"'
    end = rng.choice(["\n", "\r\n"])
    blanks = set(rng.sample(range(n_rows + 1), 3))
    text = ("\ufeff" if rng.random() < 0.5 else "") + ",".join(names) + end
    starts = []
    for i in range(n_rows + 1):
        if i in blanks:
            text += end
        if i == n_rows:
            break
        fields = [_field(rng) for _ in range(width)]
        if i in faults:
            fields = _faulty(rng, fields, faults[i])
        starts.append(text.count("\n") + 1)
        text += ",".join(fields) + end
    return text, starts


def _outcome(read, text: str, newline: str):
    """read's columns, row count and the bits of every value, or the type
    and message of the error it raises."""
    try:
        columns, values = read(io.StringIO(text, newline=newline))
    except MoodkitError as exc:
        return type(exc), str(exc)
    return columns, len(values[0]), [array("d", v).tobytes() for v in values]


def _read_columns(source):
    data = read_csv(source)
    assert all(len(data.column(name)) == data.n_rows for name in data.columns)
    return data.columns, tuple(map(data.column, data.columns))


def test_read_csv_matches_the_field_by_field_oracle():
    # Chunk edges at 1,024 rows; lines split on "\n" only, and also on a
    # bare carriage return.
    rng = random.Random(2301)
    for n_rows in (1023, 1024, 1025, 2049):
        for kind in (None, *_FAULTS):
            row = rng.choice([0, 1022, 1023, 1024, n_rows - 1, rng.randrange(n_rows)])
            text, _ = _csv_case(rng, n_rows, {min(row, n_rows - 1): kind} if kind else {})
            for newline in ("\n", ""):
                want = _outcome(read_csv_fields, text, newline)
                assert _outcome(_read_columns, text, newline) == want, (n_rows, kind)
                assert kind or want[1] == n_rows


def test_read_csv_reports_the_earlier_of_two_faults():
    rng = random.Random(2302)
    # Split at a bare carriage return, a one-column row is two numbers.
    first_kinds = [kind for kind in _FAULTS if kind != "cr"]
    for _ in range(12):
        n_rows = rng.choice([1025, 2049])
        first, second = sorted(rng.sample(range(n_rows), 2))
        text, starts = _csv_case(rng, n_rows, {first: rng.choice(first_kinds),
                                               second: rng.choice(_FAULTS)})
        for newline in ("\n", ""):
            want = _outcome(read_csv_fields, text, newline)
            assert _outcome(_read_columns, text, newline) == want
            with pytest.raises((MalformedRowError, NonNumericError)) as exc:
                read_csv(io.StringIO(text, newline=newline))
            assert exc.value.line == starts[first]


def test_read_csv_names_a_bad_field_before_a_later_csv_error():
    with pytest.raises(NonNumericError) as exc:
        read_csv(["a,b\n", "1,x\n", "1\r2,3\n"])
    assert (exc.value.line, exc.value.column, exc.value.value) == (2, "b", "x")


def test_dataset_equality_takes_minus_zero_as_zero():
    minus, plus = Dataset(["a"], [[-0.0]]), Dataset(["a"], [[0.0]])
    assert minus == plus and hash(minus) == hash(plus)
    assert read_csv(["a\n", "-0\n"]) == Dataset(["a"], [[0.0]], "csv")
    assert minus.column("a") == (-0.0,)
    assert math.copysign(1.0, minus.column("a")[0]) == -1.0
    assert math.copysign(1.0, minus.rows[0][0]) == -1.0
    assert minus != Dataset(["a"], [[5e-324]])
    assert minus != Dataset(["b"], [[0.0]]) and minus != Dataset(["a"], [])
    assert minus != Dataset(["a"], [[0.0]], "csv")


def test_read_csv_memory_is_near_its_payload():
    # Held: 8 bytes per value.  Peak: those, the row-major values they are
    # sliced from, and one chunk of records.  tracemalloc counts the same
    # bytes on any machine.
    rng = random.Random(2303)
    n_rows, width = 50_000, 4
    lines = ["NOL,NOC,NOM,NOA\n"] + [
        ",".join(str(rng.randint(1, 10**6)) for _ in range(width)) + "\n"
        for _ in range(n_rows)]
    payload = 8 * n_rows * width
    tracemalloc.start()
    try:
        data = read_csv(lines)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.n_rows == n_rows
    assert held <= 1.1 * payload and peak <= 3 * payload, (held / payload,
                                                            peak / payload)
