"""Weight vectors and the cumulative partitions they induce on [0, 1].

A weight vector holds positive weights a_1..a_n with sum 1.  Its running
totals S_i = a_1 + ... + a_i form the strictly increasing breakpoints

    0 = S_0 < S_1 < ... < S_n = 1,

computed as a compensated prefix sum (Neumaier's rounding at every step,
evaluated with whole-array operations) so the partition is reproducible bit
for bit and accurate to ~1 ulp per breakpoint even for millions of
weights.  Each type holds one read-only float64 array; the tuple views
``weights`` and ``breakpoints`` are built when asked for.
All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._summation import _finite_sum, compensated_prefix_sums, exact_sum
from .errors import (
    EmptyInput,
    InvalidArgument,
    NonPositiveWeight,
    PointOutsideInterval,
    SumOutOfTolerance,
    TooLarge,
    WeightBelowResolution,
    WeightUnderflow,
)

#: Accepted deviation of an un-normalized weight sum from 1.
SUM_TOLERANCE = 1e-9
#: Most intervals a partition built from a size (``uniform_weights``) or by
#: repeated bisection (``refinement_chain``) may have: 2**27 breakpoints are
#: 1 GiB of float64, and evaluating and summing over them needs a few more.
MAX_INTERVALS = 2**27


def _float_array(values: Iterable[float], copy: bool = True) -> np.ndarray:
    """A one-dimensional float64 array holding ``values`` (any iterable).

    A new array, unless ``copy`` is False and ``values`` already is one.
    """
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    a = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise TypeError(f"expected a flat sequence of numbers, got shape {a.shape}")
    return a


def _check_positive(a: np.ndarray) -> None:
    """Raise NonPositiveWeight for the first entry that is not finite and > 0."""
    if not (a.min() > 0.0 and a.max() < np.inf):  # nan fails too
        i = int(np.argmax(~(np.isfinite(a) & (a > 0.0))))
        raise NonPositiveWeight(i, float(a[i]))


def _check_sum(a: np.ndarray, plain: float) -> None:
    """Raise SumOutOfTolerance unless positive weights, of plain sum ``plain``,
    sum to 1 within SUM_TOLERANCE."""
    # Summed in any order, n positive weights err by at most gamma_(n-1)
    # (about (n - 1)u) times their exact sum.  ``bound``, 4nu times the
    # plain sum, covers that error and the exact sum's own rounding with
    # room to spare, so a plain sum that clears the tolerance by
    # ``bound`` settles it as the exact sum would.  Near the edge, and
    # for the error message, the exact sum decides.
    bound = 4.0 * a.size * 2.0**-53 * plain
    if not abs(plain - 1.0) <= SUM_TOLERANCE - bound:  # inf fails too
        total = _finite_sum("the sum of the weights", lambda: exact_sum(a))
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumOutOfTolerance(total, SUM_TOLERANCE)


class _ArrayBacked:
    """Equality, hashing and the read-only array of the array-backed types.

    The public constructor validates a copy of its argument; ``_adopt``
    validates (unless ``checked``) and takes over an array the library has
    just built, which no one else references, without a second copy.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(self._validated(_float_array(self.array)))

    @classmethod
    def _adopt(cls, a: np.ndarray, checked: bool = False):
        obj = object.__new__(cls)
        obj._freeze(a if checked else cls._validated(a))
        return obj

    @staticmethod
    def _validated(a: np.ndarray) -> np.ndarray:
        """``a`` after the type's checks (which may fix it up in place)."""
        return a

    def _freeze(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        # the tuple's hash, so -0.0 and 0.0 hash alike as they compare equal
        return hash(tuple(self.array.tolist()))


@dataclass(frozen=True, eq=False)
class WeightVector(_ArrayBacked):
    """Positive weights summing to 1 within :data:`SUM_TOLERANCE`."""

    array: np.ndarray

    @staticmethod
    def _validated(a: np.ndarray) -> np.ndarray:
        if a.size == 0:
            raise EmptyInput("weight vector")
        _check_positive(a)
        with np.errstate(over="ignore"):
            plain = float(np.add.reduce(a))
        _check_sum(a, plain)
        return a

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size



@dataclass(frozen=True, eq=False)
class CumulativePartition(_ArrayBacked):
    """Breakpoints 0 = S_0 < S_1 < ... < S_n = 1.

    A final breakpoint within :data:`SUM_TOLERANCE` of 1 is snapped to
    exactly 1.0 on construction, so catalog functions with special values
    at the right endpoint are evaluated there exactly.
    """

    array: np.ndarray

    @staticmethod
    def _validated(bps: np.ndarray) -> np.ndarray:
        if bps.size < 2:
            raise InvalidArgument("a partition needs at least the two endpoints")
        if bps[0] != 0.0:
            raise InvalidArgument(f"first breakpoint must be exactly 0.0, got {float(bps[0])!r}")
        if bps[-1] != 1.0:
            if not abs(bps[-1] - 1.0) <= SUM_TOLERANCE:  # NaN fails too
                raise InvalidArgument(f"last breakpoint {float(bps[-1])!r} is not within {SUM_TOLERANCE:g} of 1")
            bps[-1] = 1.0
        if not (bps[1:] > bps[:-1]).all():  # NaN fails too
            i = int(np.argmax(~(bps[1:] > bps[:-1]))) + 1
            raise InvalidArgument(
                f"breakpoints must be strictly increasing; "
                f"S_{i - 1}={float(bps[i - 1])!r} >= S_{i}={float(bps[i])!r}"
            )
        return bps

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        """Number of intervals."""
        return self.array.size - 1


def from_weights(weights: Iterable[float], normalize: bool = False) -> WeightVector:
    """Build a WeightVector, optionally rescaling the input by its sum.

    Without ``normalize`` the sum must already be within 1e-9 of 1; with it,
    any positive weights are accepted and divided by their exact sum,
    leaving a sum within 1e-15 of 1: the total and each quotient round
    once, by a relative 2^-53 at most.  A weight total that overflows float64
    raises NonFiniteValue, and a weight the division rounds to 0.0 raises
    WeightUnderflow; the quotients are checked once, not as a new input.
    """
    a = _float_array(weights, copy=not normalize)
    if a.size == 0:
        raise EmptyInput("weight list")
    if not normalize:
        return WeightVector._adopt(a)
    _check_positive(a)
    total = _finite_sum("the sum of the weights", lambda: exact_sum(a))
    q = a / total  # each 0 < a_i <= total, so q lies in [0, 1] and a zero underflowed
    if not q.min() > 0.0:
        i = int(np.argmin(q))
        raise WeightUnderflow(i, float(a[i]), total)
    _check_sum(q, float(np.add.reduce(q)))  # each q_i <= 1: the sum cannot overflow
    return WeightVector._adopt(q, checked=True)


def cumulative(w: WeightVector) -> CumulativePartition:
    """Cumulative partition of ``w`` via a compensated prefix sum.

    Raises WeightBelowResolution, naming the first weight a_i, when a
    weight too small to move the running total leaves two breakpoints
    equal.
    """
    s = compensated_prefix_sums(w.array)
    last = s[-1]
    try:
        return CumulativePartition._adopt(s)
    except ValueError:
        # the partition's own check failed; blame a weight only if one was
        # lost (a failure the snap of S_n to 1.0 causes stays as it was), so
        # look at S_n as it was before the check snapped it in place
        s[-1] = last
        lost = np.flatnonzero(~(s[1:] > s[:-1]))
        if lost.size == 0:
            raise
        i = int(lost[0]) + 1
        raise WeightBelowResolution(i, float(w.array[i - 1]), float(s[i - 1])) from None


def require_within_budget(n: int, depth: int = 0) -> None:
    """Raise TooLarge if n intervals bisected ``depth`` times exceed MAX_INTERVALS.

    Checked before allocating, and without forming 2**depth for a huge depth.
    """
    if depth >= MAX_INTERVALS.bit_length() or n << depth > MAX_INTERVALS:
        raise TooLarge(n, depth, MAX_INTERVALS)


def uniform_weights(n: int) -> WeightVector:
    """n equal weights 1/n; at most MAX_INTERVALS of them."""
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    require_within_budget(n)
    return WeightVector._adopt(np.full(n, 1.0 / n))


def bisect_all(p: CumulativePartition) -> CumulativePartition:
    """Refinement inserting the midpoint of every interval.

    Raises PointOutsideInterval for the first interval whose midpoint
    rounds onto one of its ends (an interval between adjacent floats).
    That test and p's ends make the partition's check, which is not repeated.
    """
    bps = p.array
    mids = 0.5 * (bps[:-1] + bps[1:])
    bad = ~((bps[:-1] < mids) & (mids < bps[1:]))
    if bad.any():
        i = int(np.argmax(bad))
        raise PointOutsideInterval(i + 1, float(mids[i]))
    out = np.empty(2 * bps.size - 1)
    out[0::2] = bps
    out[1::2] = mids
    return CumulativePartition._adopt(out, checked=True)
