"""Compensated floating-point accumulation.

One-shot sums use :func:`math.fsum`, which is exact up to the final
rounding.  Running prefix totals need every intermediate value, so they use
Neumaier's compensated sum: a Kahan-style accumulator whose branch also
handles addends larger than the running total.  :class:`NeumaierSum` is the
scalar accumulator; :func:`compensated_prefix_sums` computes every prefix
of an array with whole-array operations and rounds each step exactly as
that accumulator does.  Both are deterministic for a fixed input order.
"""

from __future__ import annotations

import numpy as np


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
