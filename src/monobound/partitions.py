"""Weight vectors and the cumulative partitions they induce on [0, 1].

A weight vector holds positive weights a_1..a_n with sum 1.  Its running
totals S_i = a_1 + ... + a_i form the strictly increasing breakpoints

    0 = S_0 < S_1 < ... < S_n = 1,

computed as a compensated prefix sum (Neumaier's rounding at every step,
evaluated with whole-array operations) so the partition is reproducible bit
for bit and accurate to ~1 ulp per breakpoint even for millions of
weights.  Each type holds one read-only float64 array; the tuple views
``weights``, ``breakpoints`` and ``widths()`` are built when asked for.
All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._summation import compensated_prefix_sums, exact_sum
from .errors import (
    EmptyInput,
    NonPositiveWeight,
    PointOutsideInterval,
    SumOutOfTolerance,
    TooLarge,
    WeightBelowResolution,
)

#: Accepted deviation of an un-normalized weight sum from 1.
SUM_TOLERANCE = 1e-9
#: Deviation after opt-in normalization (a handful of ulps).
NORMALIZED_SUM_TOLERANCE = 1e-15
#: Most intervals a partition built from a size (``uniform_weights``) or by
#: repeated bisection (``refinement_chain``) may have: 2**27 breakpoints are
#: 1 GiB of float64, and evaluating and summing over them needs a few more.
MAX_INTERVALS = 2**27


def _float_array(values: Iterable[float]) -> np.ndarray:
    """A new one-dimensional float64 array holding ``values`` (any iterable)."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    a = np.array(values, dtype=float)
    if a.ndim != 1:
        raise TypeError(f"expected a flat sequence of numbers, got shape {a.shape}")
    return a


def _check_positive(a: np.ndarray) -> None:
    """Raise NonPositiveWeight for the first entry that is not finite and > 0."""
    bad = ~(np.isfinite(a) & (a > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPositiveWeight(i, float(a[i]))


class _ArrayBacked:
    """Equality, hashing and the read-only array shared by both types."""

    array: np.ndarray

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

    def __post_init__(self) -> None:
        a = _float_array(self.array)
        if a.size == 0:
            raise EmptyInput("weight vector")
        _check_positive(a)
        total = exact_sum(a)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumOutOfTolerance(total, SUM_TOLERANCE)
        self._freeze(a)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size

    @property
    def mesh(self) -> float:
        """Largest weight, i.e. the widest interval of the partition."""
        return float(self.array.max())


@dataclass(frozen=True, eq=False)
class CumulativePartition(_ArrayBacked):
    """Breakpoints 0 = S_0 < S_1 < ... < S_n = 1.

    A final breakpoint within :data:`SUM_TOLERANCE` of 1 is snapped to
    exactly 1.0 on construction, so catalog functions with special values
    at the right endpoint are evaluated there exactly.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        bps = _float_array(self.array)
        if bps.size < 2:
            raise ValueError("a partition needs at least the two endpoints")
        if bps[0] != 0.0:
            raise ValueError(f"first breakpoint must be exactly 0.0, got {float(bps[0])!r}")
        if bps[-1] != 1.0:
            if not abs(bps[-1] - 1.0) <= SUM_TOLERANCE:  # NaN fails too
                raise ValueError(f"last breakpoint {float(bps[-1])!r} is not within {SUM_TOLERANCE:g} of 1")
            bps[-1] = 1.0
        bad = ~(bps[1:] > bps[:-1])
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise ValueError(
                f"breakpoints must be strictly increasing; "
                f"S_{i - 1}={float(bps[i - 1])!r} >= S_{i}={float(bps[i])!r}"
            )
        self._freeze(bps)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        """Number of intervals."""
        return self.array.size - 1

    def widths(self) -> tuple[float, ...]:
        """Interval widths S_i - S_{i-1}."""
        return tuple(np.diff(self.array).tolist())


@dataclass(frozen=True)
class RefinementPlan:
    """Points to insert, as (interval index, interior point) pairs.

    Interval indices are 1-based: interval i spans [S_{i-1}, S_i].
    """

    insertions: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        points = [m for _, m in self.insertions]
        if len(set(points)) != len(points):
            raise ValueError("refinement plan contains duplicate insertion points")


def from_weights(weights: Iterable[float], normalize: bool = False) -> WeightVector:
    """Build a WeightVector, optionally rescaling the input by its sum.

    Without ``normalize`` the sum must already be within 1e-9 of 1; with it,
    any positive weights are accepted and divided by their compensated sum,
    leaving a sum within 1e-15 of 1.
    """
    a = _float_array(weights)
    if a.size == 0:
        raise EmptyInput("weight list")
    if normalize:
        _check_positive(a)
        a /= exact_sum(a)
    return WeightVector(a)


def cumulative(w: WeightVector) -> CumulativePartition:
    """Cumulative partition of ``w`` via a compensated prefix sum.

    Raises WeightBelowResolution, naming the first weight a_i, when a
    weight too small to move the running total leaves two breakpoints
    equal.
    """
    s = compensated_prefix_sums(w.array)
    try:
        return CumulativePartition(s)
    except ValueError:
        # the partition's own check failed; blame a weight only if one was
        # lost (a failure the snap of S_n to 1.0 causes stays as it was)
        lost = np.flatnonzero(~(s[1:] > s[:-1]))
        if lost.size == 0:
            raise
        i = int(lost[0]) + 1
        raise WeightBelowResolution(i, float(w.array[i - 1]), float(s[i - 1])) from None


def weights_of(p: CumulativePartition) -> WeightVector:
    """Inverse construction: successive differences a_i = S_i - S_{i-1}."""
    return WeightVector(np.diff(p.array))


def refine(p: CumulativePartition, plan: RefinementPlan) -> CumulativePartition:
    """Insert the plan's points; existing breakpoints are all retained."""
    bps = p.breakpoints
    extra = []
    for index, point in plan.insertions:
        if not 1 <= index <= p.n:
            raise PointOutsideInterval(index, point)
        if not bps[index - 1] < point < bps[index]:
            raise PointOutsideInterval(index, point)
        extra.append(float(point))
    return CumulativePartition(tuple(sorted(bps + tuple(extra))))


def require_within_budget(n: int, depth: int = 0) -> None:
    """Raise TooLarge if n intervals bisected ``depth`` times exceed MAX_INTERVALS.

    Checked before allocating, and without forming 2**depth for a huge depth.
    """
    if depth >= MAX_INTERVALS.bit_length() or n << depth > MAX_INTERVALS:
        raise TooLarge(n, depth, MAX_INTERVALS)


def uniform_weights(n: int) -> WeightVector:
    """n equal weights 1/n; at most MAX_INTERVALS of them."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_within_budget(n)
    return WeightVector(np.full(n, 1.0 / n))


def bisect_all(p: CumulativePartition) -> CumulativePartition:
    """Refinement inserting the midpoint of every interval.

    Raises PointOutsideInterval for the first interval whose midpoint
    rounds onto one of its ends (an interval between adjacent floats).
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
    return CumulativePartition(out)


def partition_from_sequence(breakpoints: Sequence[float]) -> CumulativePartition:
    """Partition from raw breakpoints (must start at 0 and end at 1)."""
    return CumulativePartition(breakpoints)
