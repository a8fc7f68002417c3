"""Command-line interface.

Subcommands: ``metrics`` (class-model report from an .omdl file), ``fit``
(regression on a CSV or the built-in dataset), ``predict`` (fit then
evaluate at given predictor values), ``dataset`` (dump a data source),
``plot`` (scatter files per y column).

Exit codes: 0 success, 1 I/O failure, 2 parse/usage error, 3 model
validation diagnostics, 4 computation or domain error.  The MOODKIT_FORMAT
environment variable sets the default output format (table, json, csv).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    InvalidModelError, MalformedRowError, MoodkitError, NonNumericError,
    ParseError,
)

# Each subcommand imports the modules it runs, so a cold start loads no more.
if TYPE_CHECKING:
    from .dataset import Dataset
    from .metrics import MoodReport
    from .regression import FitResult

FORMATS = ("table", "json", "csv")


class _UsageError(Exception):
    """Bad command line or bad source token; maps to exit 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moodkit",
        description="Class-model design metrics and size-measure regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default: table, or MOODKIT_FORMAT)")
        p.add_argument("-o", "--output", default=None,
                       help="write output to this file instead of stdout")

    p = sub.add_parser("metrics", help="compute design metrics from an .omdl file")
    p.add_argument("model_path", help="path to an .omdl model file")
    add_common(p)
    p.set_defaults(run=cmd_metrics)

    p = sub.add_parser("fit", help="least-squares fit on a dataset")
    p.add_argument("source", help="CSV path or builtin:table1")
    p.add_argument("--response", required=True,
                   help="response column, or 'all' for the four-way interchange")
    add_common(p)
    p.set_defaults(run=cmd_fit)

    # The --<COLUMN> value flags pass through unparsed, so no option of
    # predict may match them as an abbreviation.
    p = sub.add_parser("predict", help="fit, then evaluate at given values",
                       allow_abbrev=False)
    p.add_argument("source", help="CSV path or builtin:table1")
    p.add_argument("--response", required=True, help="response column")
    add_common(p)
    p.set_defaults(run=cmd_predict)

    p = sub.add_parser("dataset", help="dump a data source")
    p.add_argument("source", help="CSV path or builtin:table1")
    add_common(p)
    p.set_defaults(run=cmd_dataset)

    p = sub.add_parser("plot", help="write scatter files, one per y column")
    p.add_argument("source", help="CSV path or builtin:table1")
    p.add_argument("--x", required=True, help="x-axis column")
    p.add_argument("--y", required=True,
                   help="comma-separated y-axis columns")
    p.add_argument("--log10", action="store_true",
                   help="transform both axes to log base 10")
    p.add_argument("--svg", action="store_true",
                   help="emit SVG images instead of CSV point files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=cmd_plot, output=None)
    return parser


def _load_source(token: str) -> Dataset:
    from .dataset import builtin_table1, read_csv
    if token.startswith("builtin:"):
        if token != "builtin:table1":
            raise _UsageError(f"unknown builtin dataset {token!r}; "
                              "available: builtin:table1")
        return builtin_table1()
    with open(token, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRowError(
            raw.count(b"\n", 0, exc.start) + 1,
            f"byte 0x{raw[exc.start]:02x} is not valid UTF-8") from None
    return read_csv(io.StringIO(text, newline=""), provenance=token)


def _emit(text: str, output: Optional[str]):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finite(value):
    """value with each non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json(payload) -> str:
    """payload as RFC 8259 JSON, indented by 2, ending in a newline.  A
    non-finite float, such as the t of a perfect fit, is written as null,
    as the value of an undefined metric is."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n"


# Display rounding mirrors conventional statistics-package output: estimates
# to 3 decimals, p-values to 3 decimals (so anything below 0.0005 prints as
# 0.000), big sums of squares in short scientific form.
def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def _fmt_ss(v: float) -> str:
    if abs(v) >= 1e7:
        return f"{v:.4E}"
    return f"{v:.3f}"


def _metrics_table(report: MoodReport) -> str:
    from .metrics import RATIOS
    lines = [f"classes: {report.tc}", "",
             f"{'metric':<8}{'value':>12}  {'ratio':>12}  note"]
    for key in RATIOS:
        mv = getattr(report, key)
        # undefined_reason is None exactly when the value is defined.
        value = f"{mv.value:.4f}" if mv.defined else "undefined"
        ratio = f"{mv.numerator}/{mv.denominator}"
        lines.append(f"{key.upper():<8}{value:>12}  {ratio:>12}  "
                     f"{mv.undefined_reason or ''}".rstrip())
    return "\n".join(lines) + "\n"


def cmd_metrics(args) -> str:
    from . import class_model, metrics as metrics_mod, omdl
    # Bytes, so that omdl.parse reports bad UTF-8 at its line:col.
    with open(args.model_path, "rb") as fh:
        doc = omdl.parse(fh.read())
    diags = class_model.validate(doc.model)
    if diags:
        raise InvalidModelError(diags)
    report = metrics_mod.compute_all(doc.model)
    if args.format == "json":
        return _json(report.to_json())
    if args.format == "csv":
        from .dataset import csv_lines
        # csv writes None as an empty field and a float as its repr.
        ratios = [(key, getattr(report, key)) for key in metrics_mod.RATIOS]
        return csv_lines(
            [("metric", "value", "numerator", "denominator", "undefined_reason")]
            + [(key, mv.value, mv.numerator, mv.denominator, mv.undefined_reason)
               for key, mv in ratios]
            + [("tc", report.tc, None, None, None)])
    return _metrics_table(report)


def _fit_table(fit: FitResult) -> str:
    spec = fit.spec
    lines = [
        f"response: {spec.response}   predictors: "
        + ", ".join(spec.predictors) + f"   n = {fit.n}",
        "",
        "coefficients",
        f"  {'term':<12}{'beta':>16}{'std error':>16}{'t':>12}{'p':>8}",
    ]
    for c in fit.coefficients:
        lines.append(
            f"  {c.name:<12}{_fmt3(c.beta):>16}{_fmt3(c.std_error):>16}"
            f"{_fmt3(c.t_stat):>12}{_fmt3(c.p_value):>8}")
    lines += [
        "",
        "model summary",
        f"  r-squared            {fit.r_squared:.3f}",
        f"  adj r-squared        {fit.adj_r_squared:.3f}",
        f"  std error of est.    {fit.std_error_estimate:.2f}",
        "",
        "anova",
        f"  {'source':<12}{'ss':>14}{'df':>6}{'ms':>14}{'F':>12}{'p':>8}",
    ]
    a = fit.anova
    lines.append(
        f"  {'regression':<12}{_fmt_ss(a.ss_regression):>14}"
        f"{a.df_regression:>6}{_fmt_ss(a.ms_regression):>14}"
        f"{_fmt3(a.f_stat):>12}{_fmt3(a.p_value):>8}")
    lines.append(
        f"  {'residual':<12}{_fmt_ss(a.ss_residual):>14}"
        f"{a.df_residual:>6}{_fmt_ss(a.ms_residual):>14}")
    lines.append(
        f"  {'total':<12}{_fmt_ss(a.ss_total):>14}{a.df_total:>6}")
    return "\n".join(lines) + "\n"


def _fit_on_the_rest(data: Dataset, response: str) -> FitResult:
    """Fit the response column on every other column of data."""
    from .regression import ModelSpec, fit
    response = data.resolve(response)
    predictors = tuple(c for c in data.columns if c != response)
    return fit(data, ModelSpec(response=response, predictors=predictors))


def cmd_fit(args) -> str:
    from .dataset import csv_lines
    from .regression import fit_all_interchange
    data = _load_source(args.source)
    if args.response == "all":
        fits = fit_all_interchange(data)
    else:
        fits = [_fit_on_the_rest(data, args.response)]
    if args.format == "json":
        payload = [f.to_json() for f in fits]
        return _json(payload if args.response == "all" else payload[0])
    if args.format == "csv":
        # csv writes a float as its repr, which round-trips.
        return csv_lines([("response", "term", "beta", "std_error", "t", "p")] + [
            (fit.spec.response, c.name, c.beta, c.std_error, c.t_stat, c.p_value)
            for fit in fits for c in fit.coefficients])
    return "\n".join(map(_fit_table, fits))


def _parse_value_flags(extras: Sequence[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    i = 0
    while i < len(extras):
        item = extras[i]
        if not item.startswith("--") or len(item) <= 2:
            raise _UsageError(f"unexpected argument {item!r}; "
                              "expected --<COLUMN> <value> pairs")
        name, eq, text = item[2:].partition("=")
        if not eq:
            i += 1
            if i >= len(extras):
                raise _UsageError(f"flag --{name} is missing a value")
            text = extras[i]
        if name in values:
            raise _UsageError(f"duplicate value for --{name}")
        try:
            values[name] = float(text)
        except ValueError:
            values[name] = math.nan
        if not math.isfinite(values[name]):
            raise _UsageError(
                f"value for --{name} must be a finite number, got {text!r}")
        i += 1
    return values


def cmd_predict(args) -> str:
    from .dataset import csv_lines
    from .regression import predict
    fit = _fit_on_the_rest(_load_source(args.source), args.response)
    response = fit.spec.response
    values = _parse_value_flags(args.extras)
    prediction = predict(fit, values)
    if args.format == "json":
        return _json({"response": response, "inputs": values,
                      "prediction": prediction})
    if args.format == "csv":
        return csv_lines([("response", "prediction"), (response, prediction)])
    return f"{prediction!r}\n"


def cmd_dataset(args) -> str:
    from .dataset import _render_value, write_csv
    data = _load_source(args.source)
    if args.format == "json":
        return _json({"columns": data.columns, "provenance": data.provenance,
                      "rows": data.rows})
    if args.format == "csv":
        buf = io.StringIO()
        write_csv(data, buf)
        return buf.getvalue()
    widths = [max(len(c), 12) for c in data.columns]
    lines = ["  ".join(c.rjust(w) for c, w in zip(data.columns, widths))]
    for row in data.rows:
        lines.append("  ".join(_render_value(v, "{:.6g}".format).rjust(w)
                               for v, w in zip(row, widths)))
    lines.append(f"rows: {data.n_rows}   provenance: {data.provenance}")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> str:
    from .dataset import csv_lines, scatter, svg_scatter
    data = _load_source(args.source)
    ys = [part for part in args.y.split(",") if part]
    if not ys:
        raise _UsageError("--y needs at least one column name")
    # Column names become file names; keep every file inside --out.
    for name in [args.x] + ys:
        if name in (".", "..") or os.path.basename(name) != name:
            raise _UsageError(
                f"column name {name!r} cannot be used in a file name")
    series_list = scatter(data, args.x, ys, log10=args.log10)
    os.makedirs(args.out, exist_ok=True)
    written: list[str] = []
    suffix = "_log10" if args.log10 else ""
    for series in series_list:
        stem = f"{series.y_name}_vs_{series.x_name}{suffix}"
        if args.svg:
            path = os.path.join(args.out, stem + ".svg")
            payload = svg_scatter(series)
        else:
            path = os.path.join(args.out, stem + ".csv")
            payload = csv_lines([(series.x_name + suffix, series.y_name + suffix),
                                 *series.points])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        written.append(path + "\n")
    return "".join(written)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if extras and args.command != "predict":
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        args.extras = extras
        if "format" in args and args.format is None:
            args.format = os.environ.get("MOODKIT_FORMAT", "table")
            if args.format not in FORMATS:
                raise _UsageError(f"MOODKIT_FORMAT must be one of "
                                  f"{', '.join(FORMATS)}, got {args.format!r}")
        _emit(args.run(args), args.output)
        return 0
    except _UsageError as exc:
        print(f"moodkit: error: {exc}", file=sys.stderr)
        return 2
    except InvalidModelError as exc:
        for d in exc.diagnostics:
            where = f" [{d.class_name}]" if d.class_name else ""
            print(f"moodkit: {d.code}{where}: {d.message}", file=sys.stderr)
        return 3
    except MoodkitError as exc:
        print(f"moodkit: {exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, MalformedRowError,
                                     NonNumericError)) else 4
    except OSError as exc:
        print(f"moodkit: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
