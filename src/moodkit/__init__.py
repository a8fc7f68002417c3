"""moodkit: class-model design metrics, OMDL parsing, and size regression.

Public surface re-exported here: the model types and validation, the OMDL
parser/renderer, the six metric functions, tail-probability kernels, the
dataset type with its built-in sample, and the regression API.
"""

from .class_model import (
    AttributeDecl, ClassDecl, ClassModel, ClassTallies, Diagnostic,
    MethodDecl, MethodKind, Visibility, descendants, tallies, validate,
)
from .dataset import (
    COLUMN_ALIASES, Dataset, ScatterSeries, builtin_table1, read_csv,
    scatter, svg_scatter, write_csv,
)
from .errors import (
    DegenerateModelError, DomainError, InsufficientDataError,
    InvalidModelError, MalformedRowError, MissingPredictorError,
    MoodkitError, NonNumericError, NonPositiveValueError, ParseError,
    RankDeficientError, UnknownClassError, UnknownColumnError,
)
from .metrics import (
    MetricValue, MoodReport, ahf, aif, cf, compute_all, mhf, mif, pf,
)
from .omdl import OmdlDocument, parse, render
from .regression import (
    AnovaTable, CoefficientEstimate, FitResult, ModelSpec, anova, fit,
    fit_all_interchange, log_transform, predict,
)
from .special import f_upper_p, ln_gamma, reg_inc_beta, t_two_sided_p

__version__ = "0.1.0"

__all__ = [
    "AttributeDecl", "ClassDecl", "ClassModel", "ClassTallies", "Diagnostic",
    "MethodDecl", "MethodKind", "Visibility", "descendants", "tallies",
    "validate",
    "COLUMN_ALIASES", "Dataset", "ScatterSeries", "builtin_table1",
    "read_csv", "scatter", "svg_scatter", "write_csv",
    "DegenerateModelError", "DomainError", "InsufficientDataError",
    "InvalidModelError", "MalformedRowError", "MissingPredictorError",
    "MoodkitError", "NonNumericError", "NonPositiveValueError",
    "RankDeficientError", "UnknownClassError", "UnknownColumnError",
    "MetricValue", "MoodReport", "ahf", "aif", "cf", "compute_all", "mhf",
    "mif", "pf",
    "OmdlDocument", "ParseError", "parse", "render",
    "AnovaTable", "CoefficientEstimate", "FitResult", "ModelSpec", "anova",
    "fit", "fit_all_interchange", "log_transform", "predict",
    "f_upper_p", "ln_gamma", "reg_inc_beta", "t_two_sided_p",
    "__version__",
]
