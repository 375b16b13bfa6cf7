"""Exception hierarchy for the toolkit.

Every error raised by stabkit derives from :class:`StabkitError`, so callers
can catch analysis failures without swallowing programming errors.
"""

from __future__ import annotations


class StabkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(StabkitError, ValueError):
    """An argument is outside its valid range (for example negative or NaN)."""


# --- matrix kernel -----------------------------------------------------------

class NonSquareError(StabkitError):
    """A square matrix was required."""


class NoConvergenceError(StabkitError):
    """The eigenvalue iteration did not converge."""


class AsymmetricError(StabkitError):
    """Matrix is too far from symmetric for a definiteness test."""


class SingularError(StabkitError):
    """Linear solve hit a (numerically) singular matrix."""


class DimensionMismatchError(StabkitError):
    """Operand dimensions are inconsistent."""


class SingularLyapunovOperatorError(StabkitError):
    """A and -A share an eigenvalue: the Lyapunov equation has no unique solution."""


# --- expressions -------------------------------------------------------------

class ExprError(StabkitError):
    """Base class for expression parsing/evaluation errors."""


class ParseError(ExprError):
    """Syntax error while parsing an expression.

    Carries the character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown identifier {name!r}")
        self.name = name
        self.position = position


class ArityMismatchError(ExprError):
    def __init__(self, function: str, expected: int, got: int):
        super().__init__(f"{function}() takes {expected} argument(s), got {got}")
        self.function = function
        self.expected = expected
        self.got = got


class DomainError(ExprError):
    """Non-finite value or invalid operand (``row``: a batch's failing row)."""

    def __init__(self, reason: str, node=None, row: int | None = None,
                 at: str | None = None):
        super().__init__(reason if at is None else f"{reason} at {at}")
        self.reason, self.node, self.row = reason, node, row


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not bound in the evaluation context")
        self.name = name


# --- integration -------------------------------------------------------------

class NonFiniteStateError(StabkitError):
    """A trajectory escaped (component beyond the escape threshold or non-finite)."""

    def __init__(self, t: float, message: str | None = None):
        super().__init__(message or f"state escaped to non-finite values at t={t!r}")
        self.t = t


class HistoryGapError(StabkitError):
    """The supplied history function does not cover the required interval."""


class SampleCapError(StabkitError):
    """Trajectory would exceed the dense-storage sample cap."""


# --- classification / direct method ------------------------------------------

class ContinuumOfEquilibriaError(StabkitError):
    """Singular state matrix: the equilibrium set is a continuum, not a point."""


class NotAnEquilibriumError(StabkitError):
    """The supplied point is not an equilibrium within tolerance."""


class NotAFixedPointError(StabkitError):
    """The origin is not a fixed point of the discrete update."""


class InvalidCandidateError(StabkitError):
    """Candidate function violates its contract (e.g. V(0, t) != 0)."""


class NoRegionError(StabkitError):
    """No attraction ball could be certified (violations arbitrarily close to 0)."""


class ZeroTrajectoryError(StabkitError):
    """Envelope fitting requires a trajectory with nonzero norm on the window."""


# --- input files -------------------------------------------------------------

class SchemaError(StabkitError):
    """System-definition file violates the published schema."""
