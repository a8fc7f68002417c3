"""moodkit: class-model design metrics, OMDL parsing, and size regression.

Public surface re-exported here: the model types and validation, the OMDL
parser/renderer, the six metric functions, tail-probability kernels, the
dataset type with its built-in sample, and the regression API.

Each name is imported from its module on first access (PEP 562) and then
kept in this module's globals, so ``import moodkit`` loads no submodule, and
each CLI subcommand loads only the modules it runs.
"""

import importlib

# Each public name under the module that defines it; __all__ is read off this.
_EXPORTS = {
    "class_model": (
        "AttributeDecl", "ClassDecl", "ClassModel", "ClassTallies",
        "Diagnostic", "MethodDecl", "MethodKind", "Visibility", "descendants",
        "tallies", "validate"),
    "dataset": (
        "COLUMN_ALIASES", "Dataset", "ScatterSeries", "builtin_table1",
        "read_csv", "scatter", "svg_scatter", "write_csv"),
    "errors": (
        "DegenerateModelError", "DomainError", "InsufficientDataError",
        "InvalidModelError", "MalformedRowError", "MissingPredictorError",
        "MoodkitError", "NonNumericError", "NonPositiveValueError",
        "ParseError", "RankDeficientError", "UnknownClassError",
        "UnknownColumnError"),
    "metrics": (
        "MetricValue", "MoodReport", "ahf", "aif", "cf", "compute_all", "mhf",
        "mif", "pf"),
    "omdl": ("OmdlDocument", "parse", "render", "spans"),
    "regression": (
        "AnovaTable", "CoefficientEstimate", "FitResult", "ModelSpec", "anova",
        "fit", "fit_all_interchange", "log_transform", "predict"),
    "special": ("f_upper_p", "ln_gamma", "reg_inc_beta", "t_two_sided_p"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
