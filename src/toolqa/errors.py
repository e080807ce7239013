"""Error taxonomy shared across the package.

Every failure surfaced by this package derives from :class:`ToolqaError`.
Errors raised while executing a multi-stage operation (e.g. running a SQL
script against a serialized table) carry a ``stage`` attribute naming the
stage that failed; it is folded into ``str(error)``.
"""

from __future__ import annotations


class ToolqaError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str = "", *, stage: str | None = None):
        super().__init__(message)
        self.message = message
        self.stage = stage

    def __str__(self) -> str:
        if self.stage:
            return f"[{self.stage}] {self.message}"
        return self.message

    def tag(self) -> str:
        """Short machine-readable form, e.g. ``sql:ParseError``."""
        name = type(self).__name__
        if self.stage:
            return f"{self.stage}:{name}"
        return name


# -- tabular -----------------------------------------------------------------

class MalformedInput(ToolqaError):
    """Serialized table text is not a well-formed table object, or a numeral
    is past the interpreter's integer-string digit limit."""


class RaggedRow(ToolqaError):
    """A table row does not match the header arity."""


# -- calculator / sql --------------------------------------------------------

class ParseError(ToolqaError):
    """Input text is not in the accepted grammar."""


class DivisionByZero(ToolqaError):
    """Arithmetic evaluation divided by zero."""


class UnsupportedStatement(ToolqaError):
    """Recognizable SQL that falls outside the restricted dialect."""


class UnknownColumn(ToolqaError):
    """Query references a column absent from the table header."""


class TypeMismatch(ToolqaError):
    """Numeric aggregate applied to a text column."""


class NoRows(ToolqaError):
    """SUM/MIN/MAX/AVG had no rows (or no numeric cells) to aggregate."""


# -- templates ---------------------------------------------------------------

class MissingAttribute(ToolqaError):
    """Template requires a record attribute the record lacks."""


class AmbiguousDerivation(ToolqaError):
    """Derivation fits neither tool grammar and no tag can break the tie."""


class UnknownTemplate(ToolqaError):
    """Router output does not normalize to a known template name."""


# -- datasets / fixtures -----------------------------------------------------

class UnreadableFile(ToolqaError):
    """File missing or unreadable."""


class SchemaMismatch(ToolqaError):
    """File content does not match the expected format."""


class EmptyInput(ToolqaError):
    """Operation requires a non-empty input collection."""


# -- backends ----------------------------------------------------------------

class TransportError(ToolqaError):
    """Remote generation failed after retries."""


class MissingFixtureEntry(ToolqaError):
    """Replay fixture has no entry for the requested prompt."""


# -- evaluation --------------------------------------------------------------

class LengthMismatch(ToolqaError):
    """Aligned outcome/record lists have different lengths."""
