"""Exception types shared across the package."""


class FraclapError(Exception):
    """Base class for all errors raised by fraclap."""


class ParseError(FraclapError):
    """Input document could not be parsed."""


class ValidationError(FraclapError):
    """Input data violates a structural invariant (measures, weights, edges)."""


class DisconnectedError(ValidationError):
    """The graph is not connected."""


class DimensionMismatch(FraclapError, ValueError):
    """A vector or field is not index-aligned with the graph."""


class InvalidExponent(FraclapError, ValueError):
    """Fractional exponent outside the admissible range (s must be > 0)."""


class NumericalError(FraclapError):
    """A numerical routine failed to meet its contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not reach the requested tolerance."""


class SingularSystem(NumericalError):
    """A linear system that should be definite turned out singular."""


class MonotonicityViolation(NumericalError):
    """Monotone iteration produced a non-monotone step (numerics bug guard)."""


class NotSolved(FraclapError):
    """All solution routes failed within their iteration caps.

    The message starts with the tag of the route that raised it, and says
    how the attempt failed: a candidate rejected by the residual check, a
    sweep cap reached, an empty constraint set (a variational step run past
    the screen) or a nonpositive multiplier. ``trace``, which ``solve``
    fills, holds one message per failed attempt, in order, this one last.
    """

    trace = ()


class CertificateUnsolvable(FraclapError):
    """Screening certified the problem unsolvable (sign conditions)."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class NotAnUpperSolution(FraclapError):
    """The supplied function fails the upper-solution inequality."""


class ThresholdIsMinusInfinity(FraclapError):
    """Screening certifies the equation solvable for every c < 0: no threshold."""
