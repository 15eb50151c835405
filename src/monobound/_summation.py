"""Exact and compensated floating-point accumulation.

One-shot sums use :func:`exact_sum`, which returns the exact sum rounded
once to the nearest float: bit for bit the value of :func:`math.fsum` on
the same numbers, computed with a few passes over cache-sized blocks
instead of a Python list and a scalar loop.  It follows the error-free
vector extraction of Rump, Ogita and Oishi ("Accurate floating-point
summation, Part I/II", SIAM J. Sci. Comput. 31, 2008): adding and then
subtracting a large power of two splits each value into a high part on a
coarse grid, whose sum is exact in any order, and a remainder.  One round
leaves remainders whose plain sum, with its a priori error bound, almost
always pins down the correctly rounded total; a second round, and then
:func:`math.fsum`, serve the sums it cannot decide.  Below ``_FSUM_CUTOFF``
(288) values, fsum over a list costs less than the kernel's ~10 us.

The extraction certifies each block on its own, with constants from the
block's own largest magnitude, so sums whose terms are formed on the fly
(the Riemann and Abel sums of :mod:`monobound.bounds`) stream through one
reused block-sized buffer: :func:`_blocked_sum` takes a producer of the
values instead of an array, and no full-size temporary is built.

Running prefix totals need every intermediate value, so they use
Neumaier's compensated sum: a Kahan-style accumulator whose branch also
handles addends larger than the running total.
:func:`compensated_prefix_sums` computes every prefix in one sweep of
block-wise array operations and rounds each step exactly as that scalar
accumulator does.  All are deterministic for a fixed input.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonFiniteValue

#: Below this many values :func:`exact_sum` calls :func:`math.fsum`, whose
#: cost grows with the values (~30 ns each) but which has no fixed cost; the
#: kernel's fixed cost is ~10 us of numpy calls for one block, and the two
#: cross between about 250 (terms formed block by block, as in the Riemann
#: and Abel sums) and 330 values (a plain array).
_FSUM_CUTOFF = 288
#: Values per block of both kernels: their block-sized buffers stay in cache
#: and their memory is bounded whatever the input size.  At n = 10**6 the
#: two kernels together ran fastest at 2**15, within 10 % at 2**14 and 2**16.
_CHUNK = 1 << 15
#: Below 2**960 in magnitude, fewer than 2**62 values sum to less than
#: 2**1022 and the extraction constants stay finite; larger values go to
#: fsum, which keeps its own OverflowError for an intermediate overflow.
_LIMIT = 2.0**960
#: Each block's exponent is at least this one's, so the second round's unit
#: and the error bound stay normal floats.
_TINY = 2.0**-800
#: A sum whose first block lies below _TINY is taken times 2**_SCALE, which
#: is exact and lifts even 2**-1074 to _TINY.  Its rounded total scales back
#: exactly: below 2**-1022 the exact sum, a multiple of 2**-1074, is a float.
_SCALE = 1074 - 800

#: ``produce(start, stop, out)`` returns values start..stop-1 of a sum: a
#: view of an existing array, or ``out`` (stop - start floats) filled in.
Producer = Callable[[int, int, np.ndarray], np.ndarray]


def exact_sum(values) -> float:
    """The sum of ``values`` (float64), exact and then correctly rounded.

    Equal to ``math.fsum(list(values))`` bit for bit.  The values go through
    :func:`_blocked_sum` in blocks of at most ``_CHUNK``.  For a block of m
    values with largest magnitude M, let e = frexp(max(M, 2**-800))[1] (so
    M < 2**e) and k = (m + 2).bit_length() (so m + 2 < 2**k).  An
    extraction round with s1 = 2**(e + k) splits each value a:

    - q = (a + s1) - s1 is a multiple of 2**(e + k - 53) and at most 2**e
      in magnitude, and r = a - q is exact with |r| <= 2**(e + k - 53).
      Every partial sum of the block's q is a multiple of that unit below
      2**(e + k), hence exact in float64 in any order, so their total t1
      is exact.
    - The r are summed plainly into ``rest``, in any order with an error of
      at most gamma_(m-1) * sum |r| < 2**(k - 52) * m * 2**(e + k - 53) <
      E = 2**(e + 3k - 105), as gamma_(m-1) < 2**(k - 52).
    - Where that does not decide, a second pass repeats the round on each r
      with s2 = 2**(e + 2k - 53): t2 is exact, |r2| <= 2**(e + 2k - 106)
      and E = 2**(e + 4k - 158).

    Per block, the t are exact and rest is within E of the exact sum of
    the remainders, so the exact sum lies in [T - B, T + B], where T is the
    exact sum of every block's t and rest and B that of every block's E.
    Both ends go to :func:`math.fsum` with every block's terms and bound as
    separate terms, so nothing is rounded before the final rounding.  When
    the two ends round to the same float, rounding is monotone, so the
    exact sum rounds to that float too, and it is returned; as B > 0, it
    is never zero.  A block of tiny values gets tiny constants of its own,
    so blocks of very different magnitudes do not loosen each other's
    bounds.  A sum whose first block lies below 2**-800 is taken times
    2**274 first, which is exact, and its total scaled back.  A block of
    zeros needs no extraction, and a sum of zeros returns fsum's signed
    zero for one zero per block, -0.0 for a block of -0.0 only.

    Handed to :func:`math.fsum` instead, keeping its results and exceptions:
    fewer than ``_FSUM_CUTOFF`` values; any value that is not finite or is
    at least 2**960 in magnitude (inf, nan, intermediate overflow), or at
    least 2**686 in a sum taken times 2**274; and a total neither pass can
    decide: one within B of a rounding midpoint, or an exact zero of
    nonzero values (fsum's signed-zero rules).
    """
    a = np.asarray(values, dtype=float)
    if a.size < _FSUM_CUTOFF:
        return math.fsum(a.tolist())
    return _blocked_sum(a.size, lambda start, stop, out: a[start:stop])


def _blocked_sum(n: int, produce: Producer) -> float:
    """:func:`exact_sum` of the n values ``produce`` hands out, block by block.

    A pass of one extraction round per block decides almost every sum; a
    pass of two rounds runs only when it cannot, then :func:`math.fsum`.
    ``produce`` is called once per block and pass, with a reused buffer.
    """
    if n < _FSUM_CUTOFF:
        return _fsum_of(n, produce)
    size = min(n, _CHUNK)
    buf, rem = np.empty(size), np.empty(size)
    for rounds in (1, 2):
        terms, bounds = [], []
        for start in range(0, n, size):
            m = min(size, n - start)
            out, r = (buf, rem) if m == size else (buf[:m], rem[:m])
            block = produce(start, start + m, out)
            top = max(-float(np.minimum.reduce(block)), float(np.maximum.reduce(block)))
            if start == 0:
                scale = _SCALE if top < _TINY else 0
            if not top < math.ldexp(_LIMIT, -scale):  # nan fails too
                return _fsum_of(n, produce)
            if scale:
                block = np.multiply(block, 2.0**scale, out=out)
                top *= 2.0**scale
            if top == 0.0:  # no extraction; the plain sum is -0.0 when all are
                terms.append(np.add.reduce(block))
                continue
            e = math.frexp(max(top, _TINY))[1]
            k = (m + 2).bit_length()
            part, q = block, r
            for shift in (k, 2 * k - 53)[:rounds]:  # s1, then s2
                s = math.ldexp(1.0, e + shift)
                np.add(part, s, out=q)
                q -= s
                terms.append(np.add.reduce(q))
                part, q = np.subtract(part, q, out=r), out  # q is summed: r takes its buffer
            terms.append(np.add.reduce(r))
            bounds.append(math.ldexp(1.0, e + (rounds + 2) * k - 53 * rounds - 52))
        total = math.fsum((*terms, *[-b for b in bounds]))
        if not bounds or total == math.fsum((*terms, *bounds)):  # zeros, or decided
            return math.ldexp(total, -scale)
    return _fsum_of(n, produce)


def _finite_sum(what: str, total: Callable[[], float]) -> float:
    """``total()``, or NonFiniteValue naming ``what`` where fsum raises (inf - inf, a total past
    float64) or the total is inf or nan: the one place a sum that leaves float64 is refused."""
    try:
        value = total()
    except (ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise NonFiniteValue(what)
    return value


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
    (running total plus running compensation) after adding v_1..v_i.  One
    sweep over ``_CHUNK`` blocks forms, while a block is in cache, its plain
    totals (a cumulative sum seeded with the plain total so far), each
    step's error, their running sum (seeded with the compensation so far)
    and the final add.  The cumulative sums are ``np.add.accumulate``, the
    ufunc behind ``np.cumsum`` without its wrapper, which accumulates
    strictly left to right, so seeded blocks round exactly as the scalar
    loop does.  Each
    step's error comes from Knuth's branch-free TwoSum (Muller et al.,
    *Handbook of Floating-Point Arithmetic*, ch. 4): like Neumaier's branch,
    the exact error, and +0.0 when the step is exact.  Both sums start from
    0.0, as the accumulator does, so signed zeros match too.  Returns a new
    writable float64 array of length n + 1; other buffers hold one block.
    """
    a = np.asarray(values, dtype=float)
    out = np.empty(a.size + 1)
    out[0] = 0.0
    err, lost = np.empty(min(a.size, _CHUNK) + 1), np.empty(min(a.size, _CHUNK))
    plain = comp = 0.0  # the running plain total and compensation
    for start in range(0, a.size, _CHUNK):
        v = a[start:start + _CHUNK]
        block, c, x = out[start:start + v.size + 1], err[:v.size + 1], lost[:v.size]
        done = block[0]  # entry start is final; it lends its slot to the seed
        block[0], block[1:] = plain, v
        np.add.accumulate(block, out=block)
        prev, s, b = block[:-1], block[1:], c[1:]
        np.subtract(s, prev, out=b)  # the part of v that reached s
        np.subtract(s, b, out=x)
        np.subtract(prev, x, out=x)  # what prev lost
        np.subtract(v, b, out=b)  # what v lost
        b += x
        c[0] = comp
        np.add.accumulate(c, out=c)
        plain, comp = block[-1], c[-1]
        s += b
        block[0] = done
    return out
