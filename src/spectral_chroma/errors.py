"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so the split matters: bad input
text is a ParseError, a structurally impossible request is a
DomainError, and a numeric routine that cannot vouch for its result
raises NumericError instead of returning garbage. VerificationError is
reserved for certificate or soundness breaches detected at check time.
"""

from __future__ import annotations


class SpectralChromaError(Exception):
    """Base class for all package errors."""


class ParseError(SpectralChromaError, ValueError):
    """Malformed graph6 or edge-list input; message names the offset or line."""


class DomainError(SpectralChromaError, ValueError):
    """Input outside an operation's documented domain."""


class NumericError(SpectralChromaError, RuntimeError):
    """A numeric routine failed its own convergence or consistency checks."""


class MatrixError(NumericError):
    """A NumericError about one matrix of a stack, matrix being its index there."""

    def __init__(self, matrix: int, detail: str) -> None:
        super().__init__(f"matrix {matrix}: {detail}")
        self.matrix = matrix
        self.detail = detail


class VerificationError(SpectralChromaError, RuntimeError):
    """A certificate residual or soundness invariant was breached."""
