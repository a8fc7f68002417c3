"""Seeded random calls of the public API.

Each call returns a value or raises a MoodkitError, or a TypeError or
ValueError that the docstring of the called name mentions.  Any other
exception fails the test: csv.Error, OverflowError, ZeroDivisionError and
RecursionError among them, and a RuntimeWarning, which pyproject.toml turns
into an error.  Values are drawn from the annotated types, extremes
included: floats across the double range with NaN and infinities, ints up
to and past 10**308.  Every frozen result must hash.
"""

import io
import random
from xml.etree import ElementTree

import moodkit
from moodkit import (
    AttributeDecl, ClassDecl, ClassModel, Dataset, MethodDecl, MethodKind,
    ModelSpec, MoodkitError, ScatterSeries, Visibility,
)


def call(fn, *args):
    """fn(*args), or None when it raises a documented exception."""
    try:
        return fn(*args)
    except MoodkitError:
        return None
    except (TypeError, ValueError) as exc:
        assert type(exc).__name__ in (fn.__doc__ or ""), (fn, args, exc)
        return None


def extreme(rng, lo=-320, hi=308):
    """A float of any sign and magnitude, or a special value: among them an
    int beyond the float range, which float() does not take."""
    if rng.random() < 0.1:
        return rng.choice([0.0, -0.0, float("nan"), float("inf"),
                           float("-inf"), 5e-324, 1.7976931348623157e308,
                           10**400, -10**400])
    return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(lo, hi)


def test_tails(tail_calls=4000):
    rng = random.Random(1301)

    def df():
        if rng.random() < 0.1:
            return rng.choice([0, -3, 10 ** 400, 2.5, True])
        return rng.choice([int(10.0 ** rng.uniform(0, 308)), rng.randint(1, 50)])

    returned = 0
    for _ in range(tail_calls):
        kind = rng.randrange(4)
        if kind == 0:
            p = call(moodkit.t_two_sided_p, extreme(rng), df())
        elif kind == 1:
            p = call(moodkit.f_upper_p, abs(extreme(rng)), df(), df())
        elif kind == 2:
            x = rng.choice([rng.random(), extreme(rng, -320, 1)])
            p = call(moodkit.reg_inc_beta, x, abs(extreme(rng)),
                     abs(extreme(rng)))
        else:
            p = call(moodkit.ln_gamma, extreme(rng))
            assert p is None or p == p
            returned += p is not None
            continue
        assert p is None or 0.0 <= p <= 1.0
        returned += p is not None
    assert returned > tail_calls // 2


_CSV_PIECES = ["NOL", "NOC", "LOC", "x", "a b", ",", ",", "\n", "\n", "\r\n",
               "\r", '"', '""', "1", "2.5", "-7", "1e308", "1e309", "nan",
               "inf", " ", "\x00", "é", "﻿"]


def test_read_csv_and_dataset(texts=1500, tables=800):
    rng = random.Random(1302)
    for _ in range(texts):
        text = "".join(rng.choice(_CSV_PIECES) for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.01:
            text += "9" * 131_073
        for source in (io.StringIO(text), io.StringIO(text, newline="")):
            data = call(moodkit.read_csv, source)
            if data is not None:
                hash(data)
                assert Dataset(data.columns, data.rows, "csv") == data
    names = ["NOL", "LOC", "NOC", "x", "", "a,b", 7, None]
    values = [0.0, -2.5, 3, 1e308, -1e308, 5e-324, float("nan"),
              float("inf"), "4", "x", None, True]
    for _ in range(tables):
        width = rng.randint(0, 4)
        columns = [rng.choice(names if rng.random() < 0.2 else names[:6])
                   for _ in range(width)]
        rows = [[rng.choice(values) if rng.random() < 0.05 else extreme(rng)
                 if rng.random() < 0.1 else float(rng.randint(-9, 9))
                 for _ in range(width + (rng.random() < 0.03))]
                for _ in range(rng.randint(0, 6))]
        data = call(Dataset, columns, rows)
        if data is not None:
            hash(data)


def test_fit_and_predict_at_extreme_scales(fits=300):
    rng = random.Random(1303)
    for _ in range(fits):
        p = rng.randint(1, 3)
        n = rng.randint(0, 9)
        columns = ["NOL", "NOC", "NOM", "NOA"][:p + 1]
        scales = [10.0 ** rng.uniform(-300, 300) for _ in columns]
        rows = [[rng.choice([rng.gauss(0, 1), float(rng.randint(0, 3))]) * s
                 for s in scales] for _ in range(n)]
        if rows and rng.random() < 0.2:  # a constant or repeated column
            j = rng.randrange(p + 1)
            for row in rows:
                row[j] = row[0] if rng.random() < 0.5 else scales[j]
        data = Dataset(columns, rows)
        response = rng.choice(columns + ["LOC"])
        resolved = data.resolve(response)
        spec = ModelSpec(response, [c for c in columns if c != resolved])
        result = call(moodkit.fit, data, spec)
        if p == 3:
            for other in call(moodkit.fit_all_interchange, data) or ():
                hash(other)
        if result is None:
            continue
        hash(result)
        assert call(moodkit.anova, result) == result.anova
        inputs = {c: extreme(rng, -300, 300) for c in spec.predictors
                  if rng.random() < 0.95}
        y = call(moodkit.predict, result, inputs)
        assert y is None or y - y == 0.0


def test_scatter_series_and_svg(series=800):
    # An SVG that ElementTree reads, with no nan or inf in any attribute.
    rng = random.Random(1305)
    odd = [(1.0,), (1.0, 2.0, 3.0), ("1", 2.0), (None, 2.0), [1, 2], (True, 0)]
    odd_names = [None, b"x", 1, ("x",)]
    drawn = 0
    for _ in range(series):
        points = [rng.choice(odd) if rng.random() < 0.02 else
                  (extreme(rng), extreme(rng)) for _ in range(rng.randint(0, 6))]
        names = [rng.choice(odd_names) if rng.random() < 0.05 else name
                 for name in (rng.choice(["x", "<b>&"]), "y")]
        made = call(ScatterSeries, *names, points, rng.random() < 0.5)
        if made is None:
            continue
        hash(made)
        svg = call(moodkit.svg_scatter, made)
        if svg is not None:
            ElementTree.fromstring(svg)
            assert "nan" not in svg and "inf" not in svg, made
            drawn += 1
    assert drawn > series // 4


_NAMES = ["A", "B", "C", "D", "E", "run", "class", "1x", "a b", "_"]


def random_model(rng):
    """Classes built through the public constructors, with any names,
    parents, uses and override targets, valid or not."""
    pick = lambda: rng.choice(_NAMES if rng.random() < 0.1 else _NAMES[:6])
    names = rng.sample(_NAMES[:6], rng.randint(0, 6))
    if names and rng.random() < 0.1:  # a repeated or non-identifier name
        names[rng.randrange(len(names))] = pick()
    classes = []
    for name in names:
        methods = []
        for _ in range(rng.randint(0, 3)):
            target = (pick(), pick()) if rng.random() < 0.3 else None
            kind = MethodKind.OVERRIDE if target else MethodKind.NEW
            if rng.random() < 0.05:
                kind = rng.choice(list(MethodKind))
            methods.append(call(MethodDecl, pick(),
                                rng.choice(list(Visibility)), kind, target))
        attributes = [AttributeDecl(pick(), rng.choice(list(Visibility)))
                      for _ in range(rng.randint(0, 2))]
        decl = call(ClassDecl, name,
                    [pick() for _ in range(rng.choice([0, 0, 1, 1, 2]))],
                    [m for m in methods if m is not None], attributes,
                    [pick() for _ in range(rng.randint(0, 2))])
        classes.append(decl)
    if rng.random() < 0.01:  # a deep chain, valid or closed into a cycle
        depth = 1200
        classes = [ClassDecl(f"K{i}", (f"K{i - 1}",) if i else
                             (f"K{depth - 1}",) * rng.randint(0, 1))
                   for i in range(depth)]
    return call(ClassModel, [c for c in classes if c is not None])


def test_class_models(models=1500):
    rng = random.Random(1304)
    for _ in range(models):
        model = random_model(rng)
        if model is None:
            continue
        hash(model)
        for diagnostic in call(moodkit.validate, model):
            hash(diagnostic)
        report = call(moodkit.compute_all, model)
        if report is not None:
            hash(report)
        for decl in model.classes[:3]:
            tallies = call(moodkit.tallies, model, decl.name)
            assert tallies is None or hash(tallies) is not None
            call(moodkit.descendants, model, decl.name)
        text = call(moodkit.render, model)
        if text is not None:
            document = call(moodkit.parse, text)
            assert document.model == model
            hash(document)
