"""Riemann-sum bounds for monotone functions over a cumulative partition.

For a decreasing g and any cumulative partition 0 = S_0 <= ... <= S_n = 1,
the right-endpoint sum

    T_n(g) = sum_i (S_i - S_{i-1}) * g(S_i)

never exceeds the integral of g over [0, 1]: every rectangle lies below
the graph.  The same sum has a discrete integration-by-parts form

    T_n(g) = g(1) + sum_{i=1}^{n-1} S_i * (g(S_i) - g(S_{i+1}))

whose terms are all non-negative for decreasing g.  Both routes are
computed independently here and must agree to machine precision, which is
one of the library's standing cross-checks.  The left-endpoint sum
over-estimates instead, so the pair brackets the integral, and the gap is
provably at most (g(0) - g(1)) * max_i a_i.

Increasing g is handled by applying the same argument to -g, turning the
upper bound into a lower one; reports carry a ``direction`` field saying
which way the inequality runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._summation import _blocked_sum, _finite_sum
from .errors import InvalidArgument, NonFiniteValue
from .functions import CONSTANT, DECREASING, INCREASING, MonotoneFunction, require_monotone
from .partitions import CumulativePartition, _breakpoints, bisect_all, require_within_budget

#: Absolute tolerance of the benchmark's quadrature and enclosure checks, which
#: ``bench/checks.py`` and ``bench/workloads.py`` import; the library reads none.
DEFAULT_QUAD_TOL = 1e-10
#: Float slack granted to algebraic identities and the bound's checks,
#: relative to the magnitudes they compare (see BoundReport).
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Everything the main inequality says about one (g, partition) pair.

    ``gap`` is integral - t_n: non-negative for decreasing g, non-positive
    for increasing g.  ``strict`` is a fact of g: the gap is the sum over
    the cells [S_(i-1), S_i] of the integral of g(t) - g(S_i), each term of
    one sign, so for a continuous g it vanishes only when g is constant on
    every cell, hence on [0, 1].  ``scale`` is M = max(|g(0)|, |g(1)|), the
    largest |g| on [0, 1]; every check, Abel's too, scales its slack by
    it, and ``to_dict`` leaves it out.
    """

    integral_source = "closed_form"  # the integral is g's; a wire field

    t_n: float
    integral: float
    gap: float
    gap_bound: float
    abel_value: float
    n: int
    direction: str
    evaluation_count: int
    scale: float

    @property
    def strict(self) -> bool:
        return self.direction != CONSTANT

    def to_dict(self) -> dict:
        wire = ("t_n", "integral", "integral_source", "gap", "gap_bound", "strict", "abel_value", "n")
        return {name: getattr(self, name) for name in wire}

    def enclosure(self, left: float) -> tuple[float, float, bool]:
        """(lower, upper, contains): t_n and the left sum in order, and whether they
        hold the integral within ``IDENTITY_TOL * max(1, scale)``."""
        lower, upper = (left, self.t_n) if self.direction == INCREASING else (self.t_n, left)
        slack = IDENTITY_TOL * max(1.0, self.scale)
        return lower, upper, lower - slack <= self.integral <= upper + slack

    def invariant_violations(self, left: float | None = None) -> list[str]:
        """Mathematical invariants this report must satisfy; empty means OK.

        Abel agreement, the sign of the gap and the gap bound, plus the
        enclosure of the integral when the left sum is given.  A non-empty
        list signals a bug in the library, never valid math.
        """
        out = abel_violations(self.direction, self.t_n, self.abel_value, (), self.scale)
        sign = -1.0 if self.direction == INCREASING else 1.0
        slack = IDENTITY_TOL * max(1.0, self.scale)
        if sign * self.gap < -slack:
            side = "undercuts" if self.direction == INCREASING else "exceeds"
            out.append(f"discrete sum {self.t_n!r} {side} the integral {self.integral!r}")
        if sign * self.gap > sign * self.gap_bound + slack:
            out.append(f"gap {self.gap!r} exceeds its bound {self.gap_bound!r}")
        if left is not None:
            lower, upper, contains = self.enclosure(left)
            if not contains:
                out.append(f"integral {self.integral!r} escapes the enclosure [{lower!r}, {upper!r}]")
        return out


def abel_violations(direction: str, t_n: float, abel_value: float, terms: Sequence[float], scale: float) -> list[str]:
    """Invariants of the Abel route; empty means OK.

    The Abel value agrees with the direct sum and, for decreasing or constant
    g, no term is negative, within ``IDENTITY_TOL * max(1, scale)``, scale = max |g|.
    """
    out = []
    slack = IDENTITY_TOL * max(1.0, scale)
    if abs(abel_value - t_n) > slack:
        out.append(f"Abel route {abel_value!r} disagrees with direct sum {t_n!r}")
    if direction in (DECREASING, CONSTANT) and terms and min(terms) < -slack:
        out.append(f"negative Abel term {min(terms)!r} for a decreasing function")
    return out


def refinement_violations(values: list[float]) -> list[str]:
    """Steps of a :func:`refinement_chain` that lowered T_n, relative to |T_n|; empty means OK."""
    return [
        f"refinement decreased the sum: {prev!r} -> {nxt!r}"
        for prev, nxt in zip(values, values[1:])
        if nxt < prev - IDENTITY_TOL * max(1.0, abs(prev))
    ]


def _weighted_sum(bps: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """sum_i (S_i - S_{i-1}) * vals_i and the largest width, in one blocked pass.

    The widths and products are formed block by block in the summation's
    reused buffer: the same bits as ``exact_sum(np.diff(bps) * vals)``
    without either full-size temporary.
    """
    mesh = 0.0

    def produce(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        nonlocal mesh
        np.subtract(bps[start + 1:stop + 1], bps[start:stop], out=out)
        mesh = max(mesh, float(out.max()))
        out *= vals[start:stop]
        return out

    return _finite_sum("the Riemann sum of g", lambda: _blocked_sum(vals.size, produce)), mesh


def _abel_value(bps: np.ndarray, vals: np.ndarray) -> float:
    """g(1) + sum_{i=1}^{n-1} S_i * (g(S_i) - g(S_{i+1})), from vals = g(S_1..S_n).

    Term j < n - 1 is S_(j+1) * (vals_j - vals_(j+1)) and the last is
    vals_(n-1) = g(1), formed block by block: the same bits as summing the
    Abel terms with g(1) appended, without building that array.
    """
    n = vals.size

    def produce(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        m = min(stop, n - 1)
        head = out[:m - start]
        np.subtract(vals[start:m], vals[start + 1:m + 1], out=head)
        head *= bps[start + 1:m + 1]
        if stop == n:
            out[-1] = vals[-1]
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # nan or inf ends in NonFiniteValue
        return _finite_sum("the Abel sum of g", lambda: _blocked_sum(n, produce))


def _gap_bound(g0: float, g1: float, mesh: float, gap: float = 0.0) -> float:
    """(g0 - g1) * mesh; NonFiniteValue if it, or ``gap``, is not finite."""
    bound = (g0 - g1) * mesh
    if not (math.isfinite(bound) and math.isfinite(gap)):
        raise NonFiniteValue("the gap or its bound")
    return bound


def riemann_sum_right(g, p: CumulativePartition) -> float:
    """sum_i (S_i - S_{i-1}) * g(S_i), compensated, in index order.

    A plain sum with no monotonicity hypothesis; it is a lower bound of the
    integral only when g is decreasing.  Raises NonFiniteValue when a value
    of g or the sum is not finite, as do the left, Abel and chain sums.
    """
    bps = _breakpoints(p)
    return _weighted_sum(bps, g.values(bps[1:]))[0]


def riemann_sum_left(g, p: CumulativePartition) -> float:
    """sum_i (S_i - S_{i-1}) * g(S_{i-1}); over-estimates for decreasing g."""
    bps = _breakpoints(p)
    return _weighted_sum(bps, g.values(bps[:-1]))[0]


def abel_terms(g, p: CumulativePartition) -> list[float]:
    """The terms S_i * (g(S_i) - g(S_{i+1})) for i = 1..n-1.

    Each is non-negative when g is decreasing, which is the discrete
    reason the right sum cannot exceed the integral.
    """
    return _abel_route(g, p)[2]


def _abel_route(g, p: CumulativePartition) -> tuple[float, float, list[float], float]:
    """T_n, the Abel value, the Abel terms and max |g(S_i)|, from one evaluation of g at S_1..S_n."""
    bps = _breakpoints(p)
    vals = g.values(bps[1:])
    t_n, abel_value = _weighted_sum(bps, vals)[0], _abel_value(bps, vals)  # non-finite first
    return t_n, abel_value, (bps[1:-1] * (vals[:-1] - vals[1:])).tolist(), float(np.abs(vals).max())


def abel_sum(g, p: CumulativePartition) -> float:
    """T_n via discrete integration by parts: g(1) + sum of Abel terms.

    Evaluated in this literal form, not by reduction to the direct sum, so
    agreement with :func:`riemann_sum_right` is a real cross-check.
    """
    bps = _breakpoints(p)
    return _abel_value(bps, g.values(bps[1:]))


def gap_bound(g: MonotoneFunction, p: CumulativePartition) -> float:
    """(g(0) - g(1)) * max_i a_i, a provable ceiling on integral - t_n.

    Follows from bounding each rectangle deficit by its width times the
    function's drop over the interval, then telescoping the drops.
    Requires g decreasing (constant gives 0); a bound that is not finite
    raises NonFiniteValue, as in :func:`bound_report`.
    """
    require_monotone(g, "gap_bound", decreasing=True)
    g0, g1 = g.values(np.array([0.0, 1.0])).tolist()
    return _gap_bound(g0, g1, float(np.diff(_breakpoints(p)).max()))


def bound_report(g: MonotoneFunction, p: CumulativePartition) -> BoundReport:
    """Full report: T_n, integral, gap, gap bound, Abel value, strictness.

    g is evaluated once, at S_0..S_n: the direct sum and the Abel route
    use the values at S_1..S_n, and the gap bound and ``scale`` the first
    and last, g(0) and g(1), so ``evaluation_count`` is n + 1.  The
    integral is g's closed form.  Raises NonMonotoneFunction for functions
    that rise and fall, and NonFiniteValue for a value of g, sum, gap or
    gap bound that is not finite.
    """
    require_monotone(g, "bound_report")

    bps = _breakpoints(p)
    vals = g.values(bps)
    t_n, mesh = _weighted_sum(bps, vals[1:])
    abel_value = _abel_value(bps, vals[1:])
    integral = g.closed_form_integral
    g0, g1 = float(vals[0]), float(vals[-1])

    gap = integral - t_n
    gap_bound = _gap_bound(g0, g1, mesh, gap)

    return BoundReport(
        t_n=t_n,
        integral=integral,
        gap=gap,
        gap_bound=gap_bound,
        abel_value=abel_value,
        n=p.n,
        direction=g.direction,
        evaluation_count=p.n + 1,
        scale=max(abs(g0), abs(g1)),
    )


def refinement_chain(g: MonotoneFunction, p: CumulativePartition, depth: int) -> list[float]:
    """T_n values along ``depth`` successive uniform bisections of p.

    The first entry is T_n on p itself.  For decreasing g the sequence is
    non-decreasing and bounded above by the integral: refining can only
    raise rectangles toward the graph.  Raises TooLarge, before any
    bisection, when the last partition would exceed MAX_INTERVALS.
    """
    if depth < 1:
        raise InvalidArgument(f"depth must be >= 1, got {depth}")
    require_within_budget(p.n, depth)
    require_monotone(g, "refinement_chain", decreasing=True)
    values = [riemann_sum_right(g, p)]
    current = p
    for _ in range(depth):
        current = bisect_all(current)
        values.append(riemann_sum_right(g, current))
    return values
