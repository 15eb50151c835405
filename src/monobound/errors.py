"""Exception types raised by monobound.

Every exception derives from :class:`MonoboundError` so callers can catch
library failures with a single handler.  Constructor arguments are kept as
attributes for programmatic inspection.
"""

from __future__ import annotations


class MonoboundError(Exception):
    """Base class for all monobound errors."""


class InvalidArgument(MonoboundError, ValueError):
    """An argument outside the values a routine accepts (a ValueError too)."""


class EmptyInput(MonoboundError):
    """An operation received an empty weight or data sequence."""

    def __init__(self, what: str = "input"):
        super().__init__(f"{what} must not be empty")


class NonPositiveWeight(MonoboundError):
    """A weight was zero, negative, or not finite."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"weight {index} is {value!r}; weights must be positive finite numbers")


class WeightUnderflow(NonPositiveWeight):
    """A positive weight ``value`` that rounds to 0.0 when divided by ``total``."""

    def __init__(self, index: int, value: float, total: float):
        self.index, self.value, self.total = index, value, total
        message = f"weight {index} is {value!r}, which underflows to 0.0 after normalisation"
        MonoboundError.__init__(self, f"{message} by the weight total {total!r}")


class SumOutOfTolerance(MonoboundError):
    """Weights do not sum to 1 within the accepted tolerance."""

    def __init__(self, actual: float, tolerance: float):
        self.actual = actual
        self.tolerance = tolerance
        super().__init__(
            f"weights sum to {actual!r}, outside 1 +/- {tolerance:g}; "
            "pass normalize=True to rescale"
        )


class WeightBelowResolution(MonoboundError):
    """A weight too small to move the running total it is added to.

    ``index`` is 1-based, as in a_i and S_i: adding a_index to the
    compensated running total S_(index - 1) left its rounded value where it
    was, because the weight is below about half an ulp of it, so the
    breakpoints S_(index - 1) and S_index would coincide.
    """

    def __init__(self, index: int, value: float, total: float):
        self.index = index
        self.value = value
        self.total = total
        super().__init__(
            f"weight a_{index} = {value!r} is too small to move the running total "
            f"S_{index - 1} = {total!r} (below its rounding resolution), "
            f"so S_{index - 1} and S_{index} would coincide"
        )


class PointOutsideInterval(MonoboundError):
    """A refinement point does not lie strictly inside its target interval."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"refinement point {value!r} is not interior to interval {index}")


class TooLarge(MonoboundError):
    """A requested partition has more intervals than the library will build.

    Raised before anything is allocated.  The size asked for is
    ``n * 2**depth``: n intervals bisected ``depth`` times (0: not refined).
    """

    def __init__(self, n: int, depth: int, limit: int):
        self.n = n
        self.depth = depth
        self.limit = limit
        size = f"{n}" if depth == 0 else f"{n} x 2^{depth}"
        super().__init__(f"a partition of {size} intervals exceeds the limit of {limit} intervals")


class DomainViolation(MonoboundError):
    """An evaluation point lies outside [0, 1]."""

    def __init__(self, x: float):
        self.x = x
        super().__init__(f"argument {x!r} lies outside the domain [0, 1]")


class ToleranceNotReached(MonoboundError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, best_estimate: float, achieved_error: float):
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error
        super().__init__(
            f"quadrature reached estimated error {achieved_error:.3e} "
            f"(best estimate {best_estimate!r})"
        )


class NonMonotoneFunction(MonoboundError):
    """A function does not have the monotonicity an operation requires.

    ``witness`` holds a pair of knots exhibiting the violation when
    one is known, otherwise None (for example when a function is monotone but
    in the wrong direction).
    """

    def __init__(self, message: str, witness: tuple[float, float] | None = None):
        self.witness = witness
        if witness is not None:
            message = f"{message}; direction changes between x={witness[0]!r} and x={witness[1]!r}"
        super().__init__(message)


class NotNormalized(MonoboundError):
    """A density's mass on [0, 1] deviates from 1 beyond tolerance."""

    def __init__(self, mass: float):
        self.mass = mass
        super().__init__(f"density has mass {mass!r} on [0, 1]; expected 1 within 1e-9")


class LengthMismatch(MonoboundError):
    """Two vectors that must have equal length do not."""

    def __init__(self, n_x: int, n_y: int):
        self.n_x = n_x
        self.n_y = n_y
        super().__init__(f"length mismatch: {n_x} vs {n_y}")


class NotMajorized(MonoboundError):
    """Karamata check called on a pair that is not majorized."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"x is not majorized by y (relation: {relation})")


class SumOverflow(MonoboundError):
    """Prefix sums of a vector pair overflow float64, so they cannot be compared."""

    def __init__(self):
        super().__init__("prefix sums of x and y overflow float64; rescale the inputs")


class NonFiniteValue(MonoboundError):
    """A value of g, or a sum of its values, overflows float64 or is not finite."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"{what} is not finite in float64; rescale the inputs")


class NotConvex(MonoboundError):
    """A function that must be convex is not: ``witness`` holds three points
    a < b < c of [0, 1] at which g(b) lies above the chord from a to c."""

    def __init__(self, message: str, witness: tuple[float, float, float]):
        self.witness = witness
        super().__init__(f"{message}; g lies above its chord at the middle of the points x = {witness}")
