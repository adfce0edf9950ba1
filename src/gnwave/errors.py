"""Exception types shared across the package."""
from __future__ import annotations


class GnwaveError(Exception):
    """Base class for all package errors."""


class ValidationError(GnwaveError, ValueError):
    """Raised when inputs violate a documented contract (bad config values,
    mismatched grids, out-of-range parameters)."""


class GridMismatchError(ValidationError):
    """Raised when fields living on different grids are combined."""


class CoercivityViolationError(GnwaveError, ArithmeticError):
    """Raised when the water depth loses the positivity that the elliptic
    operator needs (min h <= 0, or, during time stepping, a stage depth down
    to half the floor, the minimum depth of the initial state)."""

    def __init__(self, message: str, min_depth: float):
        super().__init__(message)
        self.min_depth = float(min_depth)


class NonConvergenceError(GnwaveError, ArithmeticError):
    """Raised when the conjugate-gradient inversion exhausts its iteration
    budget. Carries the iteration count and the last relative residual."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual = float(residual)


class BlowUpError(GnwaveError, ArithmeticError):
    """Raised when the solution norm exceeds the blow-up threshold or stops
    being finite during time stepping."""

    def __init__(self, message: str, time: float, norm: float):
        super().__init__(message)
        self.time = float(time)
        self.norm = float(norm)


class SnapshotFormatError(GnwaveError, ValueError):
    """Raised when a snapshot file fails magic/header/payload validation."""


class ParseError(GnwaveError, ValueError):
    """Raised when a configuration file cannot be parsed. Carries the
    1-based line number where parsing failed (0 when unknown)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = int(line)
