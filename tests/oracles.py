"""Scalar reference implementations the vectorized kernels are tested against."""


class NeumaierSum:
    """Running compensated sum; ``value`` is accurate to ~1 ulp throughout.

    Neumaier's variant of Kahan summation: the branch also compensates when
    the addend is larger than the running total.  ``compensated_prefix_sums``
    must give this accumulator's ``value`` after every step, bit for bit.
    """

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
