"""Exception hierarchy shared by all mobsynth modules."""


class MobsynthError(Exception):
    """Base class for all package errors."""


class DomainError(MobsynthError, ValueError):
    """An argument is outside its mathematical domain."""


class RangeError(DomainError):
    """A coordinate or index lies outside its valid range."""


class InsufficientDataError(MobsynthError, ValueError):
    """Not enough observations to fit or evaluate."""


class ParseError(MobsynthError, ValueError):
    """Malformed input file; carries a line number when one is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompatibilityError(MobsynthError, ValueError):
    """Inputs disagree on grid spec, sampling period or schema."""


class FormatVersionError(IncompatibilityError):
    """A persisted file was written with an unsupported format version."""
