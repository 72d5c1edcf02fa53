"""Exception hierarchy shared across the package, and one shared input check."""


class LexirankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LexirankError):
    """An input violates a documented precondition or type invariant."""


class ParseError(ValidationError):
    """A data file is malformed; carries the offending line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}]" if line is not None else "]")
        super().__init__(message + where)


class UnevaluableRequestError(LexirankError):
    """The request has no relevant items, so no score is defined."""


class EnumerationBudgetError(LexirankError):
    """An exhaustive check or enumeration would exceed its hard cap."""


class UndefinedResultError(LexirankError):
    """The requested statistic is undefined on this input (e.g. no decisive pairs)."""


def check_distinct(labels: list[str], what: str) -> None:
    """Reject a repeated label, which would otherwise compute and print its rows twice."""
    seen = set()
    for label in labels:
        if label in seen:
            raise ValidationError(f"{what} {label!r} given more than once")
        seen.add(label)
