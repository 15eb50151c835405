"""Weight vectors and the cumulative partitions they induce on [0, 1].

A weight vector holds positive weights a_1..a_n with sum 1.  Its running
totals S_i = a_1 + ... + a_i form the breakpoints

    0 = S_0 <= S_1 <= ... <= S_n = 1,

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
from .errors import InvalidArgument, TooLarge

#: Accepted deviation of an un-normalized weight sum from 1.
SUM_TOLERANCE = 1e-9
#: Most intervals a partition built from a size (``uniform_weights``) or by
#: repeated bisection (``refinement_chain``, which streams them) may have: 2**27
#: breakpoints are 1 GiB of float64, and a chain to 2**27 cells evaluates g ~2**28 times.
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
    """Raise InvalidArgument if ``a`` is empty, or name its first a_i that is not finite and > 0."""
    if a.size == 0:
        raise InvalidArgument("weight list must not be empty")
    if not (a.min() > 0.0 and a.max() < np.inf):  # nan fails too
        i = int(np.argmax(~(np.isfinite(a) & (a > 0.0))))
        raise InvalidArgument(f"weight a_{i + 1} is {float(a[i])!r}; weights must be positive finite numbers")


def _check_sum(a: np.ndarray) -> None:
    """Raise InvalidArgument unless the exact sum of ``a`` is within SUM_TOLERANCE of 1."""
    total = _finite_sum("the sum of the weights", lambda: exact_sum(a))
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidArgument(
            f"weights sum to {total!r}, outside 1 +/- {SUM_TOLERANCE:g}; pass normalize=True to rescale"
        )


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
        _check_positive(a)
        _check_sum(a)
        return a

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size



@dataclass(frozen=True, eq=False)
class CumulativePartition(_ArrayBacked):
    """Breakpoints 0 = S_0 <= S_1 <= ... <= S_n = 1; a cell of zero width adds nothing to any sum.

    The breakpoints as given must not decrease, and S_n must lie within
    :data:`SUM_TOLERANCE` of 1; S_n, and any breakpoint above 1, become exactly
    1.0, so catalog functions with special values at 1 are evaluated there exactly.
    """

    array: np.ndarray

    @staticmethod
    def _validated(bps: np.ndarray) -> np.ndarray:
        if bps.size < 2:
            raise InvalidArgument("a partition needs at least the two endpoints")
        if bps[0] != 0.0:
            raise InvalidArgument(f"first breakpoint must be exactly 0.0, got {float(bps[0])!r}")
        if not abs(bps[-1] - 1.0) <= SUM_TOLERANCE:  # NaN fails too
            raise InvalidArgument(f"last breakpoint {float(bps[-1])!r} is not within {SUM_TOLERANCE:g} of 1")
        if not (bps[1:] >= bps[:-1]).all():  # NaN fails too
            i = int(np.argmax(~(bps[1:] >= bps[:-1]))) + 1
            if np.isnan(bps[i]):  # S_0 and S_n are numbers, so the first NaN fails first as S_i
                raise InvalidArgument(f"breakpoint S_{i} is nan; breakpoints must be numbers")
            raise InvalidArgument(
                f"breakpoints must not decrease; S_{i - 1}={float(bps[i - 1])!r} > S_{i}={float(bps[i])!r}"
            )
        # sorted, so those above 1 are a suffix (a NaN S_n was refused above)
        bps[min(np.searchsorted(bps, 1.0), bps.size - 1):] = 1.0
        return bps

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        """Number of intervals."""
        return self.array.size - 1


def _breakpoints(p: CumulativePartition) -> np.ndarray:
    """``p.array``, or TypeError for another type, such as a WeightVector's weights."""
    if not isinstance(p, CumulativePartition):
        raise TypeError(f"expected a CumulativePartition, got {type(p).__name__}; build one with cumulative(w)")
    return p.array


def from_weights(weights: Iterable[float], normalize: bool = False) -> WeightVector:
    """Build a WeightVector, optionally rescaling the input by its sum.

    Without ``normalize`` the exact sum must already be within 1e-9 of 1;
    with it, any positive weights are divided by their exact sum, leaving a
    sum within 2u + O(u^2) of 1 (u = 2^-53), as the total and each quotient
    round once, so the quotients are not checked again.  A weight total
    that overflows float64 raises NonFiniteValue, and a weight the division
    rounds to 0.0 raises InvalidArgument.
    """
    a = _float_array(weights, copy=not normalize)
    if not normalize:
        return WeightVector._adopt(a)
    _check_positive(a)
    total = _finite_sum("the sum of the weights", lambda: exact_sum(a))
    q = a / total  # each 0 < a_i <= total, so q lies in [0, 1] and a zero underflowed
    if not q.min() > 0.0:
        i = int(np.argmin(q))
        raise InvalidArgument(
            f"weight a_{i + 1} is {float(a[i])!r}, which underflows to 0.0 after normalisation "
            f"by the weight total {total!r}"
        )
    # T = fl(S) and each q_i = fl(a_i / T) round once: |sum q - 1| <= 2u + O(u^2)
    return WeightVector._adopt(q, checked=True)


def cumulative(w: WeightVector) -> CumulativePartition:
    """Cumulative partition of ``w`` via a compensated prefix sum.

    A weight below the running total's resolution leaves a cell of zero
    width; the compensation carries its mass on to a later breakpoint.
    """
    return CumulativePartition._adopt(compensated_prefix_sums(w.array))


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
    # n * fl(1/n) = 1 + d with |d| <= u: far inside SUM_TOLERANCE
    return WeightVector._adopt(np.full(n, 1.0 / n), checked=True)


def bisect_all(p: CumulativePartition) -> CumulativePartition:
    """Refinement inserting the midpoint of every interval, which needs no check.

    For a <= b in [0, 1], fl(0.5 * fl(a + b)) lies in [a, b], as rounding is monotone
    and 2a, 2b, 0.5 * 2a and 0.5 * 2b are exact; between adjacent floats it is an end.
    ``refinement_chain`` forms stretches of repeated bisections with the same helper.
    """
    return CumulativePartition._adopt(_bisected(_breakpoints(p)), checked=True)


def _bisected(bps: np.ndarray) -> np.ndarray:
    """``bps`` with the midpoint fl(0.5 * fl(a + b)) of each neighbouring pair a, b between them."""
    out = np.empty(2 * bps.size - 1)
    out[0::2] = bps
    mids = out[1::2]
    np.add(bps[:-1], bps[1:], out=mids)
    mids *= 0.5
    return out
