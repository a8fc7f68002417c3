"""Exception hierarchy shared across the package.

Every error carries a stable ``code`` string so callers (notably the CLI)
can map failures to exit codes without string-matching messages.
"""


class MoodkitError(Exception):
    """Base class for all moodkit errors."""

    code = "ERROR"


class UnknownClassError(MoodkitError):
    code = "UNKNOWN_CLASS"

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown class: {name!r}")


class InvalidModelError(MoodkitError):
    """A class model with validation diagnostics.

    Metrics, tallies and descendant counts raise it when the parent graph
    has an unresolved name or a cycle, where they are undefined; the CLI
    raises it for any diagnostic.  ``diagnostics`` holds what
    ``moodkit.validate`` reports for the model.
    """

    code = "INVALID_MODEL"

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0]
        super().__init__(
            f"class model is invalid ({len(self.diagnostics)} validation "
            f"diagnostic(s)); first: {first.code}: {first.message}")


class ParseError(MoodkitError):
    """Raised at the first offending token; carries position and expectation."""

    code = "PARSE"

    def __init__(self, position: tuple[int, int], expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        line, col = position
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")


class DomainError(MoodkitError):
    """Argument outside a numeric function's domain."""

    code = "DOMAIN"


def _real(value, label: str) -> float:
    """float(value), with an int beyond the float range a DomainError."""
    try:
        return float(value)
    except OverflowError:
        # No repr: an int this large can exceed the int-to-str digit limit.
        raise DomainError(f"{label} is out of the float range") from None


class UnknownColumnError(MoodkitError):
    code = "UNKNOWN_COLUMN"

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"unknown column: {column!r}")


class MalformedRowError(MoodkitError):
    code = "MALFORMED_ROW"

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonNumericError(MoodkitError):
    code = "NON_NUMERIC"

    def __init__(self, line: int, column: str, value: str):
        self.line = line
        self.column = column
        self.value = value
        super().__init__(f"line {line}, column {column!r}: not a finite number: {value!r}")


class NonPositiveValueError(MoodkitError):
    code = "NONPOSITIVE_VALUE"

    def __init__(self, row: int, column: str, value: float):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"row {row}, column {column!r}: value {value} is not positive")


class RankDeficientError(MoodkitError):
    code = "RANK_DEFICIENT"

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"design matrix is rank deficient: column {column!r} is "
                         "linearly dependent on the columns before it")


class InsufficientDataError(MoodkitError):
    code = "INSUFFICIENT_DATA"

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        super().__init__(f"need more rows than parameters: n={n}, parameters={p}")


class DegenerateModelError(MoodkitError):
    code = "DEGENERATE_MODEL"

    def __init__(self, message: str = "response has zero variance"):
        super().__init__(message)


class MissingPredictorError(MoodkitError):
    code = "MISSING_PREDICTOR"

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"no value supplied for predictor {column!r}")
