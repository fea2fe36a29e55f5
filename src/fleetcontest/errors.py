"""Exception types shared across the package."""


class FleetContestError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FleetContestError):
    """Invalid domain input: bad parameters, infeasible data, wrong shapes."""


class ParseError(ValidationError):
    """Malformed configuration text.

    Carries the one-based line number of the offending line when known,
    None for document-level problems such as a missing fleet entry.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(ValidationError):
    """Operation requires a specific region count (usually two)."""


class GridSizeError(ValidationError):
    """Requested grid resolution exceeds the resource budget."""


class DomainError(ValidationError):
    """Scalar argument lies outside the mathematical domain of a function."""


class NumericalError(FleetContestError):
    """A numerical procedure failed to converge or missed its tolerance."""


class InconsistencyError(NumericalError):
    """Independent cross-checks disagree.

    Raised instead of silently picking a side: concavity_certificate raises
    it when its two routes to the Schur complement disagree.
    """
