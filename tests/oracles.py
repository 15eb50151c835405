"""Reference implementations, scalar or unstreamed, that the library's kernels are tested against."""

from monobound.bounds import riemann_sum_right
from monobound.partitions import bisect_all


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


def neumaier_prefixes(values) -> list[float]:
    """[0.0] and :class:`NeumaierSum`'s ``value`` after each of ``values``."""
    acc = NeumaierSum()
    out = [0.0]
    for v in values:
        acc.add(v)
        out.append(acc.value)
    return out


def bisected_chain(g, p, depth: int) -> list[float]:
    """T_n on p and after each of ``depth`` rounds of ``bisect_all``, every refined
    partition built in full: ``refinement_chain`` must give these bits."""
    values = [riemann_sum_right(g, p)]
    for _ in range(depth):
        p = bisect_all(p)
        values.append(riemann_sum_right(g, p))
    return values
