"""Seeded tables and the outcome of each fit on them, for a golden file.

``tables()`` rebuilds the same list of labelled tables from a seed: Table 1;
tables of 5 to 100 rows from ``size_table`` of ``tests.test_regression``;
Table 1 and one seeded table with a zero, constant or dependent column;
and the first 20 tables again with one column multiplied by 2⁻¹⁰⁶⁰,
2⁻¹⁰⁰⁰, 2⁹⁰⁰, 1e300, 1e-300, 1e150 or 1e-200, or rescaled to a largest
magnitude of 1.5e308.  The scaled column turns with the factor, so each
column meets each factor in 5 of the 20 tables.  ``outcome`` reduces one
``fit`` to JSON: the exception's type and message, or each coefficient's
beta, standard error and p-value followed by the three sums of squares and
the F test's p-value, to 11 significant digits.  Each table runs through
the eight SPECS; ``fit_all_interchange`` must answer as the first four do.

Regenerate the golden only from a fit whose results are trusted:

    PYTHONPATH=src python -m tests.fit_golden
"""

from __future__ import annotations

import hashlib
import json
from itertools import starmap
from pathlib import Path

from moodkit import Dataset, ModelSpec, MoodkitError, builtin_table1, fit

from tests.test_regression import (
    _INTERCHANGE_TABLES, SIZES, interchange_specs, make_dataset, size_table,
)

GOLDEN = Path(__file__).parent / "data" / "fit_golden.json"
SEED = 2101

# The four interchange specs, two smaller ones, and two that reach a column
# through its alias LOC (of NOL).
SPECS = (*interchange_specs(), ModelSpec("NOL", ("NOC",)),
         ModelSpec("NOM", ("NOC", "NOA")), ModelSpec("LOC", ("NOL", "NOC")),
         ModelSpec("NOC", ("LOC", "NOM")))
_ROWS = (5, 6, 8, 12, 20, 33, 60, 100)
_FACTORS = ((2.0**-1060, "2**-1060"), (2.0**-1000, "2**-1000"),
            (2.0**900, "2**900"), (1e300, "1e300"), (1e-300, "1e-300"),
            (1e150, "1e150"), (1e-200, "1e-200"), (None, "to 1.5e308"))
_DEGENERATE = ("zero NOM", "constant NOL", "NOA = 2 NOM", "NOA = NOC + NOM")


def _scaled(data: Dataset, column: int, factor) -> Dataset:
    values = data.column(SIZES[column])
    if factor is None:
        factor = 1.5e308 / max(map(abs, values))
    return make_dataset(SIZES, zip(*(data.column(c) if j != column else
                                     [v * factor for v in values]
                                     for j, c in enumerate(SIZES))))


def tables(seed: int = SEED) -> list[tuple[str, Dataset]]:
    """About 200 labelled tables: 24 unscaled, 8 degenerate, 160 scaled."""
    plain = [("table1", builtin_table1())] + [
        (f"seed {seed + k}, {rows} rows", size_table(seed + k, rows))
        for k in range(23) for rows in [_ROWS[k % len(_ROWS)]]]
    degenerate = [(f"{label}, {name}", make_dataset(
                       SIZES, starmap(_INTERCHANGE_TABLES[name], data.rows)))
                  for label, data in (plain[0], plain[6]) for name in _DEGENERATE]
    scaled = [(f"{label}, {SIZES[(k + i) % 4]} x {name}",
               _scaled(data, (k + i) % 4, factor))
              for k, (label, data) in enumerate(plain[:20])
              for i, (factor, name) in enumerate(_FACTORS)]
    return plain + degenerate + scaled


def error(exc: MoodkitError) -> list[str]:
    return [type(exc).__name__, str(exc)]


def values(result) -> list[float]:
    a = result.anova
    out = [v for c in result.coefficients
           for v in (c.beta, c.std_error, c.p_value)]
    out += [a.ss_regression, a.ss_residual, a.ss_total, a.p_value]
    return [float(f"{v:.11g}") for v in out]


def outcome(data: Dataset, spec: ModelSpec) -> list:
    try:
        return values(fit(data, spec))
    except MoodkitError as exc:
        return error(exc)


def digest(labelled: list[tuple[str, Dataset]]) -> str:
    text = repr([(label, data.columns, [data.column(c) for c in data.columns])
                 for label, data in labelled])
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    labelled = tables()
    GOLDEN.parent.mkdir(exist_ok=True)
    body = ",\n".join(json.dumps([label, [outcome(data, s) for s in SPECS]],
                                 ensure_ascii=False, separators=(",", ":"))
                      for label, data in labelled)
    GOLDEN.write_text(
        f'{{"seed": {SEED}, "inputs": "{digest(labelled)}", "outcomes": [\n'
        f"{body}\n]}}\n", encoding="utf-8")
