"""Ordinary least squares with inference: coefficient table, fit summary,
ANOVA decomposition, prediction, and the four-way response interchange.

The solver is a Householder QR factorization (LAPACK dgeqrf through numpy)
of the columns a call uses, made once for all of the call's specs: the four
fits of fit_all_interchange share one factorization of the data, and each
refactors its own terms from that small triangular factor.  The normal
equations are never formed: the Gram inverse needed for standard errors
comes from the triangular factor, the regression and residual sums of
squares from its last column Qᵀy, and the total sum of squares from one
centred pass over the data.  Raw-unit coefficients only; every column is
scaled internally, by a power of two, which is exact.  numpy is imported
by the fits alone, so the rest of the package loads without it."""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dataset import Dataset, find_name, log_columns
from .errors import (
    DegenerateModelError, DomainError, InsufficientDataError,
    MissingPredictorError, RankDeficientError, _real,
)
from .special import _f_tail

# A diagonal entry of R at or below this fraction of the largest entry in its
# column marks the column as linearly dependent on the columns before it.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ModelSpec:
    response: str
    predictors: tuple[str, ...]
    intercept: bool = True

    def __post_init__(self):
        if isinstance(self.predictors, str):
            raise TypeError("predictors take column names, not a str")
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.intercept:
            raise ValueError("models without an intercept are not supported")
        if len(set(self.predictors)) != len(self.predictors):
            raise ValueError(f"duplicate predictors: {self.predictors!r}")
        if self.response in self.predictors:
            raise ValueError(f"response {self.response!r} is also a predictor")

    def to_json(self) -> dict:
        return {**vars(self), "predictors": list(self.predictors)}


@dataclass(frozen=True)
class CoefficientEstimate:
    name: str
    beta: float
    std_error: float
    t_stat: float
    p_value: float

    def to_json(self) -> dict:
        return {"name": self.name, "beta": self.beta,
                "std_error": self.std_error, "t": self.t_stat,
                "p": self.p_value}


@dataclass(frozen=True)
class AnovaTable:
    ss_regression: float
    ss_residual: float
    ss_total: float
    df_regression: int
    df_residual: int
    df_total: int
    ms_regression: float
    ms_residual: float
    f_stat: float
    p_value: float

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class FitResult:
    spec: ModelSpec
    n: int
    coefficients: tuple[CoefficientEstimate, ...]
    r_squared: float
    adj_r_squared: float
    std_error_estimate: float
    anova: AnovaTable

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    def to_json(self) -> dict:
        return {**vars(self), "spec": self.spec.to_json(),
                "coefficients": [c.to_json() for c in self.coefficients],
                "anova": self.anova.to_json()}


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """OLS fit of spec on data with t-based coefficient inference.

    Preconditions: more rows than parameters, full-rank design, a response
    whose values are not all equal and that is none of its predictors.  A
    residual within RANK_TOLERANCE of the response's centred norm is taken
    as an exact fit: ss_residual 0, infinite t and F.  Errors:
    InsufficientDataError, DomainError (coefficients, standard errors or
    sums of squares that overflow in raw units, or coefficients and standard
    errors that underflow there), RankDeficientError (naming the dependent
    column, or a predictor named twice through an alias),
    DegenerateModelError (a constant response, or one that is also a
    predictor through an alias).
    """
    return _fit_many(data, (spec,))[0]


def _fit_many(data: Dataset, specs: Sequence[ModelSpec]) -> list[FitResult]:
    """fit of each spec, in order, from one QR of the columns they use.

    The specs have equal numbers of predictors.  Fit k raises what fit
    would raise for it, before fit k+1 is checked.
    """
    import numpy as np

    terms = [["intercept", *map(data.resolve, spec.predictors), y] for spec, y
             in zip(specs, [data.resolve(spec.response) for spec in specs])]
    n, p = data.n_rows, len(terms[0]) - 1
    if n <= p:
        raise InsufficientDataError(n, p)
    for spec, (_, *predictors, y) in zip(specs, terms):
        if y in predictors:
            raise DegenerateModelError(
                f"response {spec.response!r} and predictor "
                f"{spec.predictors[predictors.index(y)]!r} are one column")
        for i, name in enumerate(predictors):
            if name in predictors[:i]:
                raise RankDeficientError(name)
    # One array z = [1 | every column used], each column, the intercept too,
    # in units of 2**e, a power of two near its largest magnitude, so that no
    # product or square in the fit underflows or overflows.  The scaling is
    # exact and QR is invariant under it: r², F, t and p are unit-free; beta,
    # standard errors and sums of squares are scaled back.
    index = {name: j for j, name in enumerate(
        dict.fromkeys(name for t in terms for name in t[1:]), 1)}
    z = np.empty((n, len(index) + 1), order="F")
    z[:, 0] = 1.0
    for name, j in index.items():
        z[:, j] = np.frombuffer(data._packed_column(name))
    lo, hi = z.min(axis=0), z.max(axis=0)
    exps = np.frexp(np.maximum(-lo, hi))[1]
    np.ldexp(z, -exps, out=z)
    exps = exps.tolist()
    # With z = QR, the R factor of z[:, S] is that of R[:, S] (Golub & Van
    # Loan §12.5): one stacked QR factors each spec's [1 | predictors | y]
    # from R; one spec's R is triangular already and comes back unchanged.
    # Each factor's last column is Qᵀy: its rows 1…p−1 square-sum to the
    # regression sum of squares and its row p is ± the residual's norm
    # (Golub & Van Loan §5.3).
    cols = np.array([[0] + [index[name] for name in t[1:]] for t in terms])
    df_regression, df_residual, df_total = p - 1, n - p, n - 1
    # The fits share their degrees of freedom, so each tail's normaliser is
    # evaluated once.  T² is F(1, df); an intercept-only fit's F tail is 1.
    t_tail = _f_tail(1, df_residual)
    f_tail = _f_tail(df_regression, df_residual) if df_regression else None
    results = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r0 = np.linalg.qr(z, mode="r")
        # Factored, z is free: centred in place, each column squares to its
        # total sum of squares, set to 0 exactly when its values are equal.
        z -= z.mean(axis=0)
        ss_totals = np.where(lo < hi, np.square(z, out=z).sum(0), 0.0).tolist()
        r_augs = np.linalg.qr(r0[:, cols].swapaxes(0, 1), mode="r")
        r = r_augs[:, :p, :p]
        # Column j of R has the norm of column j of X, so each column is
        # tested against its own scale and the test does not depend on units.
        dependent = (np.abs(np.diagonal(r, axis1=1, axis2=2))
                     <= RANK_TOLERANCE * np.abs(r).max(axis=1))
        # A dependent factor is inverted as I, so that the stacked inverse
        # cannot raise before its own fit does.
        rinvs = np.linalg.inv(np.where(dependent.any(axis=1)[:, None, None],
                                       np.eye(p), r))
        for spec, names, c, r_aug, rinv, dep in zip(
                specs, terms, cols, r_augs, rinvs, dependent):
            if dep.any():
                raise RankDeficientError(names[int(np.argmax(dep))])
            ss_total, y_exp = ss_totals[c[p]], exps[c[p]]
            if ss_total == 0.0:
                raise DegenerateModelError(
                    f"response {spec.response!r} has zero variance")
            qty = r_aug[:, p]
            beta = rinv @ qty[:p]
            ss_regression = float(qty[1:p] @ qty[1:p])
            # A residual within RANK_TOLERANCE of y's centred norm: exact fit.
            ss_residual = (float(qty[p]) ** 2 if abs(qty[p]) > RANK_TOLERANCE
                           * math.sqrt(ss_total) else 0.0)
            ms_residual = ss_residual / df_residual
            s = math.sqrt(ms_residual)
            # sqrt(diag((XᵀX)⁻¹)) = row norms of R⁻¹, by hypot so that
            # columns of extreme scale neither underflow nor overflow;
            # initial=0.0 makes a one-entry row its absolute value.
            se = s * np.hypot.reduce(rinv, axis=1, initial=0.0)
            # In raw units, squares beyond ~1e154 overflow, and a beta or SE
            # below ~1e-308 loses precision: name either, not an inf or a 0.
            scaled = np.array((beta, se))
            units = np.array([y_exp - exps[j] for j in c[:p]])
            raw = np.ldexp(scaled, units)
            raw_ss = np.ldexp((ss_regression, ss_residual, ss_total), 2 * y_exp)
            over = not (np.isfinite(raw_ss).all() and np.isfinite(raw).all())
            if over or (abs(np.ldexp(raw, -units) - scaled)
                        > RANK_TOLERANCE * abs(scaled)).any():
                raise DomainError(
                    f"coefficients or sums of squares of response {names[p]!r} "
                    f"{'overflow' if over else 'underflow'} double precision; "
                    "rescale it")
            # With zero residual variance t and F are infinite, t is 0 for a
            # zero estimate, and their tails are 0 (1): the fit is exact.
            ts = beta / se
            ts[np.isnan(ts)] = 0.0
            r_squared = max(1.0 - ss_residual / ss_total, 0.0)
            # An intercept-only fit has df_regression = ss_regression = 0.
            reg, res, tot = raw_ss.tolist()
            f_stat = (ss_regression / max(df_regression, 1) / ms_residual
                      if ms_residual > 0.0 else math.inf)
            coefficients = tuple(
                CoefficientEstimate(name, b, e, t, t_tail(t * t))
                for name, b, e, t in zip(names, *raw.tolist(), ts.tolist()))
            table = AnovaTable(
                ss_regression=reg, ss_residual=res, ss_total=tot,
                df_regression=df_regression, df_residual=df_residual,
                df_total=df_total, ms_regression=reg / max(df_regression, 1),
                ms_residual=res / df_residual, f_stat=f_stat,
                p_value=f_tail(f_stat) if f_tail else 1.0)
            results.append(FitResult(
                spec=spec, n=n, coefficients=coefficients, r_squared=r_squared,
                adj_r_squared=1.0 - (1.0 - r_squared) * (n - 1) / (n - p),
                std_error_estimate=math.ldexp(s, y_exp), anova=table))
    return results


def anova(fit_result: FitResult) -> AnovaTable:
    """The ANOVA decomposition computed during the fit."""
    return fit_result.anova


def predict(fit_result: FitResult, inputs: Mapping[str, float]) -> float:
    """Evaluate the fitted equation at the given predictor values.

    Every predictor must be supplied (aliases accepted); extra keys are
    ignored.  Raises MissingPredictorError naming the first absent column,
    and DomainError for an input beyond the float range or a result that
    is not finite.
    """
    coeffs = fit_result.coefficients
    total = coeffs[0].beta
    for est in coeffs[1:]:
        key = find_name(est.name, inputs, MissingPredictorError)
        total += est.beta * _real(inputs[key], f"predictor {key!r}")
    if not math.isfinite(total):
        raise DomainError(f"prediction is {total!r}: the inputs are not finite "
                          "or overflow double precision")
    return total


INTERCHANGE_RESPONSES = ("NOL", "NOC", "NOM", "NOA")


def fit_all_interchange(data: Dataset) -> list[FitResult]:
    """Fit each of NOL, NOC, NOM, NOA on the other three, in that order."""
    canonical = [data.resolve(c) for c in INTERCHANGE_RESPONSES]
    return _fit_many(data, [ModelSpec(response, tuple(
        c for c in canonical if c != response)) for response in canonical])


def log_transform(data: Dataset, base10: bool = True) -> Dataset:
    """Elementwise logarithm of every column; names gain a suffix.

    base10 gives log10 and "_log10" names; otherwise natural log and "_ln".
    Any value <= 0 raises NonPositiveValueError with its row and column.
    """
    suffix = "_log10" if base10 else "_ln"
    values = log_columns(data, data.columns, math.log10 if base10 else math.log)
    rows = array("d", itertools.chain.from_iterable(zip(*values)))
    return Dataset._of_rows(tuple(c + suffix for c in data.columns), rows,
                            data.n_rows, data.provenance + suffix)
