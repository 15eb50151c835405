"""Exact and compensated floating-point accumulation.

One-shot sums of an array use :func:`exact_sum`, which returns the exact
sum rounded once to the nearest float: bit for bit the value of
:func:`math.fsum` on the same numbers, computed with a few whole-array
passes instead of a Python list and a scalar loop.  It follows the
error-free vector extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation, Part I/II", SIAM J. Sci. Comput. 31, 2008): adding
and then subtracting a large power of two splits each value into a high
part on a coarse grid, whose sum is exact in any order, and a remainder.
Two such rounds leave remainders so small that their plain sum, with its
a priori error bound, pins down the correctly rounded total; when the bound
cannot decide the rounding, :func:`math.fsum` does the work instead.

Running prefix totals need every intermediate value, so they use
Neumaier's compensated sum: a Kahan-style accumulator whose branch also
handles addends larger than the running total.  :class:`NeumaierSum` is
the scalar accumulator; :func:`compensated_prefix_sums` computes every
prefix of an array with whole-array operations and rounds each step
exactly as that accumulator does.  All are deterministic for a fixed input.
"""

from __future__ import annotations

import math

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
#: From 2**-800 up, the second round's unit and the error bound stay normal
#: floats; below it they could underflow, and the extraction and the bound
#: would no longer hold, so such inputs go to fsum.
_TINY = 2.0**-800


def exact_sum(values) -> float:
    """The sum of ``values`` (float64), exact and then correctly rounded.

    Equal to ``math.fsum(list(values))`` bit for bit.  With M = max |a_i|,
    e = frexp(M)[1] (so M < 2**e), n values and k = (n + 2).bit_length()
    (so n + 2 < 2**k), two extraction rounds use the powers of two
    s1 = 2**(e + k) and s2 = 2**(e + 2k - 53):

    - q = (a + s1) - s1 is a multiple of 2**(e + k - 53) and at most 2**e
      in magnitude, and r = a - q is exact with |r| <= 2**(e + k - 53).
      Every partial sum of the q is a multiple of that unit below
      2**(e + k), hence exact in float64 in any order, so their total t1
      is exact.
    - The same round on r with s2 gives q2, whose total t2 is exact, and
      remainders r2 with |r2| <= 2**(e + 2k - 106).
    - The r2 are summed plainly into ``rest``.  Whatever the order, the
      error is at most gamma_(n-1) * sum |r2| < E = 2**(e + 4k - 158).

    The exact sum therefore lies in t1 + t2 + [rest - E, rest + E].  When
    fsum of both ends gives the same nonzero float, rounding is monotone,
    so the exact sum rounds to that float too, and it is returned.

    Handed to :func:`math.fsum` instead, keeping its results and exceptions:
    fewer than ``_FSUM_CUTOFF`` values; any value that is not finite or is
    at least 2**960 in magnitude (inf, nan, intermediate overflow); M below
    2**-800 (exact zeros included); and a total the certificate cannot
    decide: one within E of a rounding midpoint, or one that rounds to zero
    (fsum's signed-zero rules).
    """
    a = np.asarray(values, dtype=float)
    n = a.size
    if n < _FSUM_CUTOFF:
        return math.fsum(a.tolist())
    lo, hi = a.min(), a.max()
    top = max(-lo, hi)
    if not (-_LIMIT < lo and hi < _LIMIT and top >= _TINY):  # nan fails too
        return math.fsum(a.tolist())
    e = math.frexp(top)[1]
    k = (n + 2).bit_length()
    s1 = math.ldexp(1.0, e + k)
    s2 = math.ldexp(1.0, e + 2 * k - 53)
    size = min(n, _CHUNK)
    q, r = np.empty(size), np.empty(size)
    t1 = t2 = rest = 0.0
    for start in range(0, n, size):
        block = a[start:start + size]
        qb, rb = q[:block.size], r[:block.size]
        np.add(block, s1, out=qb)
        qb -= s1
        t1 += qb.sum()
        np.subtract(block, qb, out=rb)
        np.add(rb, s2, out=qb)
        qb -= s2
        t2 += qb.sum()
        rb -= qb
        rest += rb.sum()
    bound = math.ldexp(1.0, e + 4 * k - 158)
    total = math.fsum((t1, t2, rest, -bound))
    if total != 0.0 and total == math.fsum((t1, t2, rest, bound)):
        return total
    return math.fsum(a.tolist())


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
