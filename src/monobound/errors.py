"""Exception types raised by monobound.

Every exception derives from :class:`MonoboundError` so callers can catch
library failures with a single handler.  :class:`InvalidArgument` (also a
ValueError) is every argument outside what a routine accepts: an empty
input, a weight a_i that is not positive or underflows, weights whose
exact sum is not 1 within 1e-9, a point outside [0, 1], a density of the
wrong mass, vectors of unequal length, and each out-of-range parameter;
its message names the values at fault.  Each other class asks the caller for
something different: :class:`NonFiniteValue` (rescale the inputs),
:class:`TooLarge` (a size budget), :class:`ToleranceNotReached` (the
quadrature did not converge), and :class:`NonMonotoneFunction`,
:class:`NotConvex` and :class:`NotMajorized` (a failed hypothesis, with
its witness or relation kept as an attribute).
"""

from __future__ import annotations


class MonoboundError(Exception):
    """Base class for all monobound errors."""


class InvalidArgument(MonoboundError, ValueError):
    """An argument outside the values a routine accepts (a ValueError too)."""


class TooLarge(MonoboundError):
    """A requested partition has more intervals than the library will build.

    Raised before anything is allocated.  The size asked for is
    ``n * 2**depth``: n intervals bisected ``depth`` times (0: not refined);
    ``budget`` names whose limit it is.
    """

    def __init__(self, n: int, depth: int, limit: int, budget: str = "the limit"):
        self.n = n
        self.depth = depth
        self.limit = limit
        size = f"{n}" if depth == 0 else f"{n} x 2^{depth}"
        super().__init__(f"a partition of {size} intervals exceeds {budget} of {limit} intervals")


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


class NotMajorized(MonoboundError):
    """Karamata check called on a pair that is not majorized."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"x is not majorized by y (relation: {relation})")


class NonFiniteValue(MonoboundError):
    """A value of g, or a sum (of weights, vectors or values of g), is not finite in float64."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"{what} is not finite in float64; rescale the inputs")


class NotConvex(MonoboundError):
    """A function that must be convex is not: ``witness`` holds three points
    a < b < c of [0, 1] at which g(b) lies above the chord from a to c."""

    def __init__(self, message: str, witness: tuple[float, float, float]):
        self.witness = witness
        super().__init__(f"{message}; g lies above its chord at the middle of the points x = {witness}")
