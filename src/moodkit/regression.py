"""Ordinary least squares with inference: coefficient table, fit summary,
ANOVA decomposition, prediction, and the four-way response interchange.

The solver is a Householder QR factorization of the design matrix (LAPACK
dgeqrf through numpy); the normal equations are never formed, and the Gram
inverse needed for standard errors comes from the triangular factor.
Raw-unit coefficients only; the response alone is scaled internally, by a
power of two, which is exact.  numpy is imported by fit alone, so the rest
of the package loads without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .dataset import Dataset, find_name, log_columns
from .errors import (
    DegenerateModelError, DomainError, InsufficientDataError,
    MissingPredictorError, RankDeficientError,
)
from .special import _real, f_upper_p, t_two_sided_p

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
        return {"response": self.response,
                "predictors": list(self.predictors),
                "intercept": self.intercept}


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
        return {"ss_regression": self.ss_regression,
                "ss_residual": self.ss_residual, "ss_total": self.ss_total,
                "df_regression": self.df_regression,
                "df_residual": self.df_residual, "df_total": self.df_total,
                "ms_regression": self.ms_regression,
                "ms_residual": self.ms_residual, "f_stat": self.f_stat,
                "p_value": self.p_value}


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
        return {
            "spec": self.spec.to_json(),
            "n": self.n,
            "coefficients": [c.to_json() for c in self.coefficients],
            "r_squared": self.r_squared,
            "adj_r_squared": self.adj_r_squared,
            "std_error_estimate": self.std_error_estimate,
            "anova": self.anova.to_json(),
        }


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """OLS fit of spec on data with t-based coefficient inference.

    Preconditions: more rows than parameters, full-rank design, response
    not constant.  Errors: InsufficientDataError, DomainError (values that
    overflow the QR, or coefficients or sums of squares that overflow),
    RankDeficientError (naming the dependent column), DegenerateModelError.
    """
    import numpy as np

    response = data.resolve(spec.response)
    names = ["intercept"] + [data.resolve(pred) for pred in spec.predictors]
    n, p = data.n_rows, len(names)
    if n <= p:
        raise InsufficientDataError(n, p)
    # One array [1 | predictors | y]: X and y are views of it, and factoring
    # it whole gives Qᵀy as R's last column, so Q is never formed.
    aug = np.empty((n, p + 1), order="F")
    aug[:, 0] = 1.0
    for j, name in enumerate(names[1:] + [response], 1):
        aug[:, j] = data.column(name)
    X, y = aug[:, :p], aug[:, p]
    # y in units of 2**y_exp, a power of two near its largest magnitude, so
    # that its squares neither underflow nor overflow.  The scaling is
    # exact: r², F, t and p are computed in these units, and beta, the
    # standard errors and the sums of squares are scaled back at the end.
    y_exp = math.frexp(np.abs(y).max())[1]
    np.ldexp(y, -y_exp, out=y)

    r_aug = np.linalg.qr(aug, mode="r")
    r = r_aug[:p, :p]
    # Values near the largest double overflow inside the factorization; say
    # so before the rank test misreads the inf/NaN as a dependent column.
    # The max propagates NaN.  y is factored in its own units, so the last
    # entry is its norm in raw units, which overflows where its QR would.
    diag = np.abs(np.diag(r_aug))
    with np.errstate(over="ignore"):
        diag[p] = np.ldexp(np.linalg.norm(y), y_exp)
    if not math.isfinite(diag.max()):
        column = (names + [response])[int(np.argmin(np.isfinite(diag)))]
        raise DomainError(f"values of column {column!r} overflow double "
                          "precision in the QR factorization; rescale them")
    # Column j of R has the norm of column j of X, so each column is tested
    # against its own scale and the test does not depend on units.
    bad = np.nonzero(diag[:p] <= RANK_TOLERANCE * np.abs(r).max(axis=0))[0]
    if bad.size:
        raise RankDeficientError(names[int(bad[0])])

    rinv = np.linalg.inv(r)
    beta = rinv @ r_aug[:p, p]

    df_regression = p - 1
    df_residual = n - p
    df_total = n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = X @ beta
        resid = y - fitted
        y_mean = float(y.mean())
        ss_total = float(((y - y_mean) ** 2).sum())
        ss_residual = float((resid ** 2).sum())
        # Computed from the fitted values, not as ss_total - ss_residual, so
        # the decomposition identity stays a real property of the solver.
        ss_regression = float(((fitted - y_mean) ** 2).sum())
        scale = float((y ** 2).sum())
        ms_residual = ss_residual / df_residual
        s = math.sqrt(ms_residual)
        # sqrt(diag((XᵀX)⁻¹)) = row norms of R⁻¹, by hypot so that columns
        # of extreme scale neither underflow nor overflow; initial=0.0 makes
        # a one-entry row its absolute value.
        se = s * np.hypot.reduce(rinv, axis=1, initial=0.0)
        # In raw units, squares beyond ~1e154 overflow: report that, not a
        # zero variance.
        raw_ss = np.ldexp((ss_regression, ss_residual, ss_total), 2 * y_exp)
        raw_beta, raw_se = np.ldexp((beta, se), y_exp)
    if not (np.isfinite(raw_ss).all() and np.isfinite((raw_beta, raw_se)).all()):
        raise DomainError(f"coefficients or sums of squares of response "
                          f"{response!r} overflow double precision; rescale it")
    if ss_total <= 1e-14 * scale:
        raise DegenerateModelError(
            f"response {spec.response!r} has zero variance")

    ms_regression = ss_regression / df_regression if df_regression else 0.0
    r_squared = 1.0 - ss_residual / ss_total
    if r_squared < 0.0:
        r_squared = 0.0
    adj_r_squared = 1.0 - (1.0 - r_squared) * (n - 1) / (n - p)

    if ms_residual > 0.0:
        f_stat = ms_regression / ms_residual
        f_p = f_upper_p(f_stat, df_regression, df_residual) if df_regression else 1.0
    else:
        # Perfect fit: infinite F, tail mass zero.
        f_stat = math.inf
        f_p = 0.0

    coeffs = []
    for name, b, b_se, raw_b, raw_b_se in zip(names, beta, se, raw_beta, raw_se):
        if b_se > 0.0:
            t = b / b_se
            pv = t_two_sided_p(t, df_residual)
        else:
            # Zero residual variance: the estimate is exact.
            t = math.inf if b > 0 else (-math.inf if b < 0 else 0.0)
            pv = 0.0 if b != 0 else 1.0
        coeffs.append(CoefficientEstimate(
            name=name, beta=float(raw_b), std_error=float(raw_b_se),
            t_stat=float(t), p_value=float(pv)))

    ss_regression, ss_residual, ss_total = raw_ss.tolist()
    anova_table = AnovaTable(
        ss_regression=ss_regression, ss_residual=ss_residual,
        ss_total=ss_total, df_regression=df_regression,
        df_residual=df_residual, df_total=df_total,
        ms_regression=ss_regression / df_regression if df_regression else 0.0,
        ms_residual=ss_residual / df_residual, f_stat=f_stat, p_value=f_p)
    return FitResult(
        spec=spec, n=n, coefficients=tuple(coeffs), r_squared=r_squared,
        adj_r_squared=adj_r_squared, std_error_estimate=math.ldexp(s, y_exp),
        anova=anova_table)


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
    results = []
    for response in canonical:
        predictors = tuple(c for c in canonical if c != response)
        results.append(fit(data, ModelSpec(response=response,
                                           predictors=predictors)))
    return results


def log_transform(data: Dataset, base10: bool = True) -> Dataset:
    """Elementwise logarithm of every column; names gain a suffix.

    base10 gives log10 and "_log10" names; otherwise natural log and "_ln".
    Any value <= 0 raises NonPositiveValueError with its row and column.
    """
    suffix = "_log10" if base10 else "_ln"
    values = log_columns(data, data.columns, math.log10 if base10 else math.log)
    return Dataset._of_columns(tuple(c + suffix for c in data.columns), values,
                               data.n_rows, data.provenance + suffix)
