import io
import math
import random
from xml.etree import ElementTree

import pytest

from moodkit import (
    Dataset, MalformedRowError, NonNumericError, NonPositiveValueError,
    UnknownColumnError, builtin_table1, read_csv, scatter, svg_scatter,
    write_csv,
)
from moodkit.dataset import TABLE1_COLUMN_SUMS


def test_builtin_shape_and_rows():
    data = builtin_table1()
    assert data.columns == ("NOL", "NOC", "NOM", "NOA")
    assert data.n_rows == 33
    assert data.provenance == "paper-table-1"
    assert data.rows[0] == (15837, 65, 1446, 537)
    assert data.rows[15] == (2129555, 5035, 7292, 2294)


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


def test_read_csv_field_count_mismatch():
    with pytest.raises(MalformedRowError) as exc:
        read_csv(io.StringIO("a,b\n1,2\n3\n"))
    assert exc.value.line == 3


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
