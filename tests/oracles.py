"""Independent reference implementations the tests compare against.

Deliberately written with different algorithms from the package: metrics by
explicit inheritance-path enumeration with exact rationals, least squares by
normal equations over Fractions, distribution tails by adaptive quadrature
of the density (normalized with math.lgamma, not the package kernel), and
CSV reading one field at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from typing import Optional

from scipy.integrate import quad

from moodkit import (
    ClassModel, MalformedRowError, MethodKind, NonNumericError, Visibility,
)
from moodkit.dataset import COLUMN_ALIASES


# ---------------------------------------------------------------- metrics

def _declared_method_names(decl) -> set[str]:
    return {m.name for m in decl.methods}


def _declared_attr_names(decl) -> set[str]:
    return {a.name for a in decl.attributes}


def _inherited_features(model: ClassModel, name: str, kind: str) -> set[tuple[str, str]]:
    """(origin, name) pairs reachable along parent paths with no redeclaration.

    A feature declared by ancestor O is inherited by C when some parent path
    C -> ... -> O exists on which no class before O declares that name.
    Enumerated directly as a graph search per feature name.
    """
    declared = _declared_method_names if kind == "method" else _declared_attr_names
    out: set[tuple[str, str]] = set()
    start = model.get(name)
    # Depth-first over (class, feature-name) states: can C still receive
    # `fname` through this node?  Blocked when the node declares it.
    for origin in model:
        if origin.name == name:
            continue
        for fname in declared(origin):
            # search for a path from `name` to origin.name avoiding declarers
            stack = [name]
            seen = {name}
            found = False
            while stack and not found:
                cur = stack.pop()
                cur_decl = model.get(cur)
                if cur != name and fname in declared(cur_decl):
                    continue  # blocked at this node
                for parent in cur_decl.parents:
                    if parent == origin.name:
                        found = True
                        break
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            if found and fname not in declared(start):
                out.add((origin.name, fname))
    return out


def _oracle_ancestors(model: ClassModel, name: str) -> set[str]:
    out: set[str] = set()
    stack = list(model.get(name).parents)
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        stack.extend(model.get(cur).parents)
    return out


def _closure(model: ClassModel, name: str) -> set[str]:
    """Strict ancestors by search, skipping unknown names; a class on a
    cycle, or that lists itself, is its own ancestor."""
    out: set[str] = set()
    stack = list(model.get(name).parents)
    while stack:
        cur = stack.pop()
        if cur in out or cur not in model:
            continue
        out.add(cur)
        stack.extend(model.get(cur).parents)
    return out


def semantic_oracle(model: ClassModel) -> tuple[list[tuple[str, str, str]], int]:
    """validate's SHADOWING and BAD_OVERRIDE findings as (code, class,
    message) in validate's order, and cf's numerator, from the rules.

    A new method or an attribute shadows when a strict ancestor declares
    its name.  An override is bad when it names another method, when its
    target is not a strict ancestor, or when neither the target nor any of
    its ancestors declares the name.  A client is a distinct used class
    that exists and is neither the class itself nor one of its ancestors.
    The findings are empty when a parent or an override target class is
    unknown or a class is its own ancestor, and cf's numerator is None
    when it cannot be computed.
    """
    closure = {d.name: _closure(model, d.name) for d in model}
    resolved = all(p in model for d in model for p in d.parents)
    acyclic = all(d.name not in closure[d.name] for d in model)
    targets_known = all(m.override_target[0] in model for d in model
                        for m in d.methods if m.override_target)
    findings: list[tuple[str, str, str]] = []
    for decl in model if resolved and acyclic and targets_known else ():
        ancestors = [model.get(n) for n in closure[decl.name]]
        for m in decl.methods:
            if m.kind is MethodKind.NEW:
                if any(m.name in _declared_method_names(c) for c in ancestors):
                    findings.append((
                        "SHADOWING", decl.name,
                        f"{decl.name!r}.{m.name} shadows an inherited method; "
                        "declare it with 'overrides' or rename it"))
                continue
            target_cls, target_meth = m.override_target
            target_line = [model.get(n) for n in closure[target_cls] | {target_cls}]
            if target_meth != m.name:
                message = (f"{decl.name!r}.{m.name} cannot override differently "
                           f"named method {target_cls}.{target_meth}")
            elif target_cls not in closure[decl.name]:
                message = f"{decl.name!r}.{m.name}: {target_cls!r} is not an ancestor"
            elif not any(m.name in _declared_method_names(c) for c in target_line):
                message = (f"{decl.name!r}.{m.name}: no method {target_meth!r} "
                           f"in ancestor {target_cls!r}")
            else:
                continue
            findings.append(("BAD_OVERRIDE", decl.name, message))
        for a in decl.attributes:
            if any(a.name in _declared_attr_names(c) for c in ancestors):
                findings.append(("SHADOWING", decl.name,
                                 f"{decl.name!r}.{a.name} shadows an inherited "
                                 "attribute"))
    clients = None
    if resolved and acyclic:
        clients = sum(1 for decl in model for target in set(decl.uses)
                      if target != decl.name and target in model
                      and target not in closure[decl.name])
    return findings, clients


def metric_oracle(model: ClassModel) -> dict[str, tuple[int, int]]:
    """Raw (numerator, denominator) for each metric, summed naively."""
    mh = md = ah = ad = mi = ma = ai = aa = mo_sum = pf_den = 0
    for decl in model:
        mh += sum(1 for m in decl.methods if m.visibility is Visibility.HIDDEN)
        md += len(decl.methods)
        ah += sum(1 for a in decl.attributes if a.visibility is Visibility.HIDDEN)
        ad += len(decl.attributes)
        inh_m = _inherited_features(model, decl.name, "method")
        inh_a = _inherited_features(model, decl.name, "attribute")
        mi += len(inh_m)
        ma += len(decl.methods) + len(inh_m)
        ai += len(inh_a)
        aa += len(decl.attributes) + len(inh_a)
        n_new = sum(1 for m in decl.methods if m.kind is MethodKind.NEW)
        n_over = len(decl.methods) - n_new
        dc = sum(1 for other in model
                 if other.name != decl.name
                 and decl.name in _oracle_ancestors(model, other.name))
        mo_sum += n_over
        pf_den += n_new * dc

    tc = len(model)
    clients = 0
    for decl in model:
        anc = _oracle_ancestors(model, decl.name)
        for target in set(decl.uses):
            if target != decl.name and target in model and target not in anc:
                clients += 1
    return {
        "mhf": (mh, md),
        "ahf": (ah, ad),
        "mif": (mi, ma),
        "aif": (ai, aa),
        "pf": (mo_sum, pf_den),
        "cf": (clients, tc * tc - tc if tc >= 2 else 0),
    }


def metric_oracle_fractions(model: ClassModel) -> dict[str, Optional[Fraction]]:
    out: dict[str, Optional[Fraction]] = {}
    for key, (num, den) in metric_oracle(model).items():
        out[key] = Fraction(num, den) if den else None
    return out


# ------------------------------------------------------------- regression

def ols_normal_equations(xs: list[list[float]], y: list[float]) -> list[Fraction]:
    """Exact-rational normal-equations solve.

    xs holds predictor rows (no intercept column); the intercept is
    prepended here.
    """
    n = len(y)
    design = [[Fraction(1)] + [Fraction(v) for v in row] for row in xs]
    p = len(design[0])
    yf = [Fraction(v) for v in y]
    # XtX and Xty in exact arithmetic
    xtx = [[sum(design[r][i] * design[r][j] for r in range(n))
            for j in range(p)] for i in range(p)]
    xty = [sum(design[r][i] * yf[r] for r in range(n)) for i in range(p)]
    return gauss_solve(xtx, xty)


def gauss_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial (nonzero) pivoting over Fractions."""
    p = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(p):
        pivot = next((r for r in range(col, p) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system in oracle")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(p):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][p] for r in range(p)]


def gram_inverse_diag_fractions(xs: list[list[float]]) -> list[Fraction]:
    """Exact diagonal of (XtX)^-1 with an intercept column prepended."""
    n = len(xs)
    design = [[Fraction(1)] + [Fraction(v) for v in row] for row in xs]
    p = len(design[0])
    xtx = [[sum(design[r][i] * design[r][j] for r in range(n))
            for j in range(p)] for i in range(p)]
    diag = []
    for j in range(p):
        e = [Fraction(int(i == j)) for i in range(p)]
        col = gauss_solve(xtx, e)
        diag.append(col[j])
    return diag


# ------------------------------------------------------- special functions

def beta_cdf_quad(x: float, a: float, b: float) -> float:
    """I_x(a,b) by adaptive quadrature of the beta density."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(u: float) -> float:
        return math.exp(ln_norm + (a - 1.0) * math.log(u)
                        + (b - 1.0) * math.log1p(-u))

    # Integrate the smaller side for accuracy.
    if x <= 0.5:
        val, _ = quad(density, 0.0, x, limit=200)
        return val
    val, _ = quad(density, x, 1.0, limit=200)
    return 1.0 - val


def t_two_sided_quad(t: float, df: int) -> float:
    """P(|T_df| >= |t|) by quadrature of the t density."""
    t = abs(t)
    if t == 0.0:
        return 1.0
    ln_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))

    def density(u: float) -> float:
        return math.exp(ln_norm - (df + 1) / 2.0 * math.log1p(u * u / df))

    upper, _ = quad(density, t, math.inf, limit=200)
    return 2.0 * upper


def f_upper_quad(f: float, df1: int, df2: int) -> float:
    """P(F >= f) by quadrature of the F density."""
    if f <= 0.0:
        return 1.0
    half1, half2 = df1 / 2.0, df2 / 2.0
    ln_norm = (math.lgamma(half1 + half2) - math.lgamma(half1)
               - math.lgamma(half2) + half1 * math.log(df1 / df2))

    def density(u: float) -> float:
        return math.exp(ln_norm + (half1 - 1.0) * math.log(u)
                        - (half1 + half2) * math.log1p(df1 * u / df2))

    val, _ = quad(density, f, math.inf, limit=200)
    return val


# ---------------------------------------------------------------- dataset

def read_csv_fields(source) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """The column names and column values of read_csv, converting and
    checking one field at a time in row order, or the error it raises."""
    lines = iter(source)
    first = [line.removeprefix("\ufeff") if isinstance(line, str) else line
             for line in itertools.islice(lines, 1)]
    reader = csv.reader(itertools.chain(first, lines))
    try:
        return _read_fields(reader)
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, f"unreadable CSV: {exc}") from None


def _read_fields(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRowError(1, "input is empty, expected a header line") from None
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
    return columns, tuple(map(tuple, values))
