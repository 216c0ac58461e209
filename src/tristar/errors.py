"""Exception types shared across the toolkit."""
from __future__ import annotations


class ColouringFormatError(ValueError):
    """Malformed colouring text; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column if column is not None else 1})"
        super().__init__(message)


class CertificateFormatError(ValueError):
    """Malformed certificate file.

    Covers structure only (bad JSON, wrong field shapes); whether the
    certified claim actually holds is the verifier's job, reported through
    its own accept/reject channel.
    """


class TheoremViolation(Exception):
    """A run produced a structure below a proven floor.

    Either the implementation is wrong or the input refutes a theorem, so
    the offending colouring is attached for inspection; it must never be
    swallowed.
    """

    def __init__(self, message: str, colouring):
        super().__init__(message)
        self.colouring = colouring


class BudgetExceededError(RuntimeError):
    """The exhaustive walk hit its colouring budget; results so far are partial.

    `partial` is set by the caller to the report it accumulated before the
    budget ran out (None until then), so incomplete findings can be surfaced.
    """

    def __init__(self, processed: int):
        self.processed = processed
        self.partial = None
        super().__init__(f"budget exhausted after {processed} colourings; report is partial")
