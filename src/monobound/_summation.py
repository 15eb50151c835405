"""Exact and compensated floating-point accumulation.

One-shot sums use :func:`exact_sum`, which returns the exact sum rounded
once to the nearest float: bit for bit the value of :func:`math.fsum` on
the same numbers, computed with a few passes over cache-sized blocks
instead of a Python list and a scalar loop.  It follows the error-free
vector extraction of Rump, Ogita and Oishi ("Accurate floating-point
summation, Part I/II", SIAM J. Sci. Comput. 31, 2008): adding and then
subtracting a large power of two splits each value into a high part on a
coarse grid, whose sum is exact in any order, and a remainder.  Two such
rounds leave remainders so small that their plain sum, with its a priori
error bound, pins down the correctly rounded total; when the bound cannot
decide the rounding, :func:`math.fsum` does the work instead.

The extraction certifies each block on its own, with constants from the
block's own largest magnitude, so sums whose terms are formed on the fly
(the Riemann and Abel sums of :mod:`monobound.bounds`) stream through one
reused block-sized buffer: :func:`_blocked_sum` takes a producer of the
values instead of an array, and no full-size temporary is built.

Running prefix totals need every intermediate value, so they use
Neumaier's compensated sum: a Kahan-style accumulator whose branch also
handles addends larger than the running total.
:func:`compensated_prefix_sums` computes every prefix of an array with
whole-array operations and rounds each step exactly as that scalar
accumulator does.  All are deterministic for a fixed input.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Below this many values :func:`exact_sum` calls :func:`math.fsum`, whose
#: cost grows with the values but which has no fixed cost; the kernel's
#: fixed cost is ~20 us of numpy calls, and the two cross between about 400
#: (values spread over many binades) and 700 values (a few binades).
_FSUM_CUTOFF = 512
#: Values per block of both kernels: their block-sized buffers stay in cache
#: and their memory is bounded whatever the input size.
_CHUNK = 1 << 16
#: Below 2**960 in magnitude, fewer than 2**62 values sum to less than
#: 2**1022 and the extraction constants stay finite; larger values go to
#: fsum, which keeps its own OverflowError for an intermediate overflow.
_LIMIT = 2.0**960
#: Each block's exponent is at least this one's, so the second round's unit
#: and the error bound stay normal floats; when every value lies below it,
#: the sum goes to fsum, since the bound would then dwarf the total.
_TINY = 2.0**-800

#: ``produce(start, stop, out)`` returns values start..stop-1 of a sum: a
#: view of an existing array, or ``out`` (stop - start floats) filled in.
Producer = Callable[[int, int, np.ndarray], np.ndarray]


def exact_sum(values) -> float:
    """The sum of ``values`` (float64), exact and then correctly rounded.

    Equal to ``math.fsum(list(values))`` bit for bit.  The values go through
    :func:`_blocked_sum` in blocks of at most ``_CHUNK``.  For a block of m
    values with largest magnitude M, let e = frexp(max(M, 2**-800))[1] (so
    M < 2**e) and k = (m + 2).bit_length() (so m + 2 < 2**k).  Two
    extraction rounds use the powers of two s1 = 2**(e + k) and
    s2 = 2**(e + 2k - 53):

    - q = (a + s1) - s1 is a multiple of 2**(e + k - 53) and at most 2**e
      in magnitude, and r = a - q is exact with |r| <= 2**(e + k - 53).
      Every partial sum of the block's q is a multiple of that unit below
      2**(e + k), hence exact in float64 in any order, so their total t1
      is exact.
    - The same round on r with s2 gives q2, whose total t2 is exact, and
      remainders r2 with |r2| <= 2**(e + 2k - 106).
    - The r2 are summed plainly into ``rest``.  Whatever the order, the
      error is at most gamma_(m-1) * sum |r2| < E = 2**(e + 4k - 158).

    Per block, t1 and t2 are exact and rest is within E of the exact sum
    of the r2, so the exact sum lies in [T - B, T + B], where T is the
    exact sum of every block's t1, t2 and rest and B that of every block's
    E.  Both ends go to :func:`math.fsum` with every block's terms and bound
    as separate terms, so nothing is rounded before the final rounding.
    When the two ends round to the same nonzero float, rounding is
    monotone, so the exact sum rounds to that float too, and it is
    returned.  A block of tiny values gets tiny constants of its own, so
    blocks of very different magnitudes do not loosen each other's bounds.

    Handed to :func:`math.fsum` instead, keeping its results and exceptions:
    fewer than ``_FSUM_CUTOFF`` values; any value that is not finite or is
    at least 2**960 in magnitude (inf, nan, intermediate overflow); all
    values below 2**-800 (exact zeros included); and a total the
    certificate cannot decide: one within B of a rounding midpoint, or one
    that rounds to zero (fsum's signed-zero rules).
    """
    a = np.asarray(values, dtype=float)
    return _blocked_sum(a.size, lambda start, stop, out: a[start:stop])


def _blocked_sum(n: int, produce: Producer) -> float:
    """:func:`exact_sum` of the n values ``produce`` hands out, block by block.

    ``produce`` is called once per block of at most ``_CHUNK`` values, with a
    slice of one reused buffer to fill, and once more per block if the sum
    goes to :func:`math.fsum`.
    """
    if n < _FSUM_CUTOFF:
        return _fsum_of(n, produce)
    size = min(n, _CHUNK)
    buf, q, r = np.empty(size), np.empty(size), np.empty(size)
    terms, bounds = [], []
    top = 0.0
    for start in range(0, n, size):
        stop = min(start + size, n)
        m = stop - start
        block = produce(start, stop, buf[:m])
        lo, hi = block.min(), block.max()
        if not (-_LIMIT < lo and hi < _LIMIT):  # nan fails too
            return _fsum_of(n, produce)
        block_top = max(-lo, hi)
        top = max(top, block_top)
        e = math.frexp(max(block_top, _TINY))[1]
        k = (m + 2).bit_length()
        s1 = math.ldexp(1.0, e + k)
        s2 = math.ldexp(1.0, e + 2 * k - 53)
        qb, rb = q[:m], r[:m]
        np.add(block, s1, out=qb)
        qb -= s1
        np.subtract(block, qb, out=rb)
        t1 = qb.sum()
        np.add(rb, s2, out=qb)
        qb -= s2
        rb -= qb
        terms += (t1, qb.sum(), rb.sum())
        bounds.append(math.ldexp(1.0, e + 4 * k - 158))
    if top >= _TINY:
        total = math.fsum((*terms, *(-b for b in bounds)))
        if total != 0.0 and total == math.fsum((*terms, *bounds)):
            return total
    return _fsum_of(n, produce)


def _fsum_of(n: int, produce: Producer) -> float:
    """``math.fsum`` of the n values ``produce`` hands out, in order."""
    out = np.empty(min(n, _CHUNK))
    values: list[float] = []
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        values += produce(start, stop, out[:stop - start]).tolist()
    return math.fsum(values)


def compensated_prefix_sums(values) -> np.ndarray:
    """[0, v_1, v_1 + v_2, ..., v_1 + ... + v_n] with Neumaier compensation.

    Entry i equals, bit for bit, the value of Neumaier's scalar accumulator
    (running total plus running compensation) after adding v_1..v_i:
    ``np.cumsum`` accumulates strictly left to right, so the plain totals,
    the per-step rounding errors and their running sum round exactly as the
    scalar loop does.  The error of each step s = prev + v comes from
    Knuth's branch-free TwoSum (Muller et al., *Handbook of Floating-Point
    Arithmetic*, ch. 4), in ``_CHUNK`` blocks through one reused buffer;
    like Neumaier's branch it gives the exact error, and +0.0 when the step
    is exact.  Both accumulations start from 0.0, as the accumulator does,
    so signed zeros match too.  Returns a new writable float64 array of
    length n + 1.
    """
    a = np.asarray(values, dtype=float)
    n = a.size
    totals = np.empty(n + 1)
    totals[0] = 0.0
    totals[1:] = a
    np.cumsum(totals, out=totals)
    err = np.empty(n + 1)
    err[0] = 0.0
    lost = np.empty(min(n, _CHUNK))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        prev, s, b = totals[start:stop], totals[start + 1:stop + 1], err[start + 1:stop + 1]
        x = lost[:stop - start]
        np.subtract(s, prev, out=b)  # the part of v that reached s
        np.subtract(s, b, out=x)
        np.subtract(prev, x, out=x)  # what prev lost
        np.subtract(a[start:stop], b, out=b)  # what v lost
        b += x
    np.cumsum(err, out=err)
    totals += err
    return totals
