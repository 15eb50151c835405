"""Exact and compensated floating-point accumulation.

One-shot sums of an array use :func:`exact_sum`, which returns the exact
sum rounded once to the nearest float: bit for bit the value of
:func:`math.fsum` on the same numbers, computed with whole-array operations
instead of a Python list and a scalar loop.  Running prefix totals need
every intermediate value, so they use Neumaier's compensated sum: a
Kahan-style accumulator whose branch also handles addends larger than the
running total.  :class:`NeumaierSum` is the scalar accumulator;
:func:`compensated_prefix_sums` computes every prefix of an array with
whole-array operations and rounds each step exactly as that accumulator
does.  All are deterministic for a fixed input.
"""

from __future__ import annotations

import math

import numpy as np

#: Below this many values :func:`exact_sum` calls :func:`math.fsum`, whose
#: cost per value is higher but which has no fixed cost; the two cross at
#: about 1000 values when the exponents span a few dozen binades, and the
#: fixed cost grows with that span.
_FSUM_CUTOFF = 2048
#: Values per pass of the kernel.  Exactness needs at most 2**26 (a bucket
#: total of 27-bit high halves must stay below 2**53); this size keeps the
#: temporaries in cache and bounds their memory whatever the input size.
_CHUNK = 1 << 16
#: frexp exponent offset: e + 1074 >= 1 for every nonzero float, subnormals
#: included, so x = m * 2**53 * 2**(e + 1074 - 1127) with an integer m * 2**53.
_SHIFT = 1074
#: Below 2**960 in magnitude, fewer than 2**63 values sum to less than
#: 2**1023, so neither the kernel nor fsum can overflow; larger values go to
#: fsum, which keeps its own OverflowError for an intermediate overflow.
_MAX_EXPONENT = 960
_LIMIT = 2.0**_MAX_EXPONENT
_BUCKETS = _MAX_EXPONENT + _SHIFT + 1


def exact_sum(values) -> float:
    """The sum of ``values`` (float64), exact and then correctly rounded.

    Equal to ``math.fsum(list(values))`` bit for bit.  Each value is split
    by ``np.frexp`` into an integer mantissa below 2**53 times a power of
    two, the mantissa into its high 27 and low 26 bits, and the two halves
    are summed per exponent with ``np.bincount``.  Every per-chunk bucket
    total is an integer multiple of its bucket's unit below 2**53 in
    magnitude, so it is exact in float64, and the int64 running totals are
    exact for fewer than 2**36 values.  The non-empty buckets are folded
    into one Python integer, which is divided by 2**1127 once; CPython
    rounds integer true division correctly (to nearest, ties to even,
    subnormals included), as fsum rounds its exact sum, so both return the
    same float.

    Handed to :func:`math.fsum` instead, keeping its results and exceptions:
    fewer than ``_FSUM_CUTOFF`` values, any value that is not finite or is
    at least 2**960 in magnitude (inf, nan, intermediate overflow), and an
    exact total of zero (fsum's signed-zero rules).
    """
    a = np.asarray(values, dtype=float)
    if a.size < _FSUM_CUTOFF or not (-_LIMIT < a.min() and a.max() < _LIMIT):
        return math.fsum(a.tolist())
    hi = np.zeros(_BUCKETS, dtype=np.int64)
    lo = np.zeros(_BUCKETS, dtype=np.int64)
    for start in range(0, a.size, _CHUNK):
        m, e = np.frexp(a[start:start + _CHUNK])
        e += _SHIFT
        m *= 2.0**27  # |m| < 2**27 with 26 fraction bits
        h = np.trunc(m)
        m -= h  # exact: the fraction, a multiple of 2**-26
        hi += np.bincount(e, weights=h, minlength=_BUCKETS).astype(np.int64)
        lo += (np.bincount(e, weights=m, minlength=_BUCKETS) * 2.0**26).astype(np.int64)
    total = 0
    for k in np.flatnonzero(hi | lo).tolist():
        total += ((int(hi[k]) << 26) + int(lo[k])) << k
    if total == 0:
        return math.fsum(a.tolist())
    return total / (1 << (_SHIFT + 53))


class NeumaierSum:
    """Running compensated sum; ``value`` is accurate to ~1 ulp throughout."""

    __slots__ = ("_total", "_compensation")

    def __init__(self) -> None:
        self._total = 0.0
        self._compensation = 0.0

    def add(self, value: float) -> None:
        t = self._total + value
        if abs(self._total) >= abs(value):
            self._compensation += (self._total - t) + value
        else:
            self._compensation += (value - t) + self._total
        self._total = t

    @property
    def value(self) -> float:
        return self._total + self._compensation


def compensated_prefix_sums(values) -> np.ndarray:
    """[0, v_1, v_1 + v_2, ..., v_1 + ... + v_n] with Neumaier compensation.

    Entry i equals ``NeumaierSum.value`` after adding v_1..v_i, bit for bit:
    ``np.cumsum`` accumulates strictly left to right, so the plain totals,
    the per-step rounding errors (Neumaier's branch, as an error-free
    transformation in the sense of Ogita, Rump and Oishi) and their running
    sum round exactly as the scalar loop does.  Both accumulations start
    from 0.0, as the accumulator does, so signed zeros match too.  Returns
    a new writable float64 array of length n + 1.
    """
    a = np.asarray(values, dtype=float)
    totals = np.cumsum(np.concatenate(([0.0], a)))
    prev, s = totals[:-1], totals[1:]
    err = np.where(np.abs(prev) >= np.abs(a), (prev - s) + a, (a - s) + prev)
    totals += np.cumsum(np.concatenate(([0.0], err)))
    return totals
