"""Catalog of monotone functions on [0, 1] and its monotonicity and convexity preconditions.

Catalog members (all strictly decreasing):

    power_complement(k)   1 - x^k, k > 0          integral k/(k+1)               convex for k <= 1
    exponential(lam)      exp(-lam*x), lam > 0    integral (1 - exp(-lam))/lam   convex
    logarithmic()         ln(2 - x)               integral 2*ln(2) - 1           concave
    reciprocal()          1/(1 + x)               integral ln(2)                 convex
    trigonometric()       cos(pi*x/2)             integral 2/pi                  concave

plus ``constant(c)`` and ``linear(m, b)`` for equality audits, and
``tabulated(points)`` for user data, evaluated by linear interpolation
between knots, whose integral is the trapezoid sum.  Every member knows
its integral in closed form, and its direction and convexity as facts:
analytic members by construction, tables from their exact knot values.
:func:`require_monotone` and :func:`require_convex` read those facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._summation import exact_sum
from .errors import DomainViolation, InvalidArgument, NonMonotoneFunction, NotConvex
from .quadrature import batched_quadrature

DECREASING = "decreasing"
INCREASING = "increasing"
CONSTANT = "constant"
NON_MONOTONE = "non_monotone"


class _UnitIntervalFunction:
    """Evaluation of ``_fn``, a function on [0, 1], at a point or on an array."""

    _fn: Callable

    def __call__(self, x: float) -> float:
        """Evaluate at a scalar point of [0, 1]; raises DomainViolation."""
        if not 0.0 <= x <= 1.0:
            raise DomainViolation(x)
        return float(self._fn(x))

    def values(self, xs) -> np.ndarray:
        """Vectorized evaluation; callers guarantee xs lies in [0, 1]."""
        return np.asarray(self._fn(np.asarray(xs, dtype=float)), dtype=float)


@dataclass(frozen=True)
class MonotoneFunction(_UnitIntervalFunction):
    """Descriptor for a function g on [0, 1] with known monotonicity.

    ``closed_form_integral`` is the integral of g over [0, 1]: analytic for
    catalog members, the trapezoid sum for tabulated data.  ``convex`` is
    stated by analytic members and None for a table, whose knots decide it
    in :func:`require_convex`.  Instances are immutable; evaluation is pure.
    """

    kind: str
    direction: str
    convex: bool | None
    formula: str
    closed_form_integral: float
    params: tuple[tuple[str, float], ...] = ()
    kinks: tuple[float, ...] = ()
    _fn: Callable = field(repr=False, compare=False, default=None)


def power_complement(k: float) -> MonotoneFunction:
    """g(x) = 1 - x^k for real k > 0.

    For k < 1, x^k is close to 1 wherever x is not tiny, and ``1 - x**k``
    cancels; -expm1(k ln x) computes the same g without that loss (at x = 0,
    ln x = -inf gives g = 1).  k >= 1 keeps ``1 - x**k``.
    """
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise InvalidArgument(f"k must be a positive real, got {k!r}")
    if k < 1.0:

        def fn(x):
            with np.errstate(divide="ignore"):
                return 0.0 - np.expm1(k * np.log(x))  # +0.0, not -0.0, at x = 1

    else:

        def fn(x):
            return 1.0 - x**k

    return MonotoneFunction(
        kind="power_complement",
        direction=DECREASING,
        convex=k <= 1.0,
        formula=f"1 - x^{k:g}",
        closed_form_integral=k / (k + 1.0),
        params=(("k", k),),
        _fn=fn,
    )


def exponential(lam: float) -> MonotoneFunction:
    """g(x) = exp(-lam*x) for lam > 0."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidArgument(f"lambda must be a positive real, got {lam!r}")
    return MonotoneFunction(
        kind="exponential",
        direction=DECREASING,
        convex=True,
        formula=f"exp(-{lam:g}*x)",
        closed_form_integral=-math.expm1(-lam) / lam,
        params=(("lambda", lam),),
        _fn=lambda x: np.exp(-lam * x),
    )


def logarithmic() -> MonotoneFunction:
    """g(x) = ln(2 - x)."""
    return MonotoneFunction(
        kind="logarithmic",
        direction=DECREASING,
        convex=False,
        formula="ln(2 - x)",
        closed_form_integral=2.0 * math.log(2.0) - 1.0,
        _fn=lambda x: np.log(2.0 - x),
    )


def reciprocal() -> MonotoneFunction:
    """g(x) = 1/(1 + x)."""
    return MonotoneFunction(
        kind="reciprocal",
        direction=DECREASING,
        convex=True,
        formula="1/(1 + x)",
        closed_form_integral=math.log(2.0),
        _fn=lambda x: 1.0 / (1.0 + x),
    )


def trigonometric() -> MonotoneFunction:
    """g(x) = cos(pi*x/2)."""
    return MonotoneFunction(
        kind="trigonometric",
        direction=DECREASING,
        convex=False,
        formula="cos(pi*x/2)",
        closed_form_integral=2.0 / math.pi,
        _fn=lambda x: np.cos((math.pi / 2.0) * x),
    )


def constant(c: float) -> MonotoneFunction:
    """g(x) = c."""
    c = float(c)
    if not math.isfinite(c):
        raise InvalidArgument(f"c must be finite, got {c!r}")
    return MonotoneFunction(
        kind="constant",
        direction=CONSTANT,
        convex=True,
        formula=f"{c:g}",
        closed_form_integral=c,
        params=(("c", c),),
        _fn=lambda x: c + 0.0 * x,
    )


def linear(m: float, b: float) -> MonotoneFunction:
    """g(x) = m*x + b; direction follows the sign of m."""
    m, b = float(m), float(b)
    if not (math.isfinite(m) and math.isfinite(b)):
        raise InvalidArgument(f"m and b must be finite, got {m!r}, {b!r}")
    direction = _direction_of(np.array([m]))

    def fn(x):
        with np.errstate(over="ignore"):  # a value that is not finite is refused where it is used
            return m * x + b

    return MonotoneFunction(
        kind="linear",
        direction=direction,
        convex=True,
        formula=f"{m:g}*x + {b:g}",
        closed_form_integral=m / 2.0 + b,
        params=(("m", m), ("b", b)),
        _fn=fn,
    )


def tabulated(points: Sequence[tuple[float, float]]) -> MonotoneFunction:
    """Piecewise-linear function through (x, y) knots spanning [0, 1].

    Knot x-values must be strictly increasing with the first at 0 and the
    last at 1.  Direction is classified from the exact signs of successive
    y-differences; knot data that rises and falls yields a function whose
    direction is "non_monotone", which bound operations reject.  The
    integral is the sum of :func:`_trapezoids`, exact for the interpolant.
    """
    xs, ys = knot_arrays(points, "tabulated function")
    with np.errstate(over="ignore"):  # a difference that overflows keeps its sign
        direction = _direction_of(np.diff(ys))
    return MonotoneFunction(
        kind="tabulated",
        direction=direction,
        convex=None,
        formula=f"piecewise linear through {xs.size} knots",
        closed_form_integral=exact_sum(_trapezoids(xs, ys)),
        kinks=tuple(xs[1:-1].tolist()),
        _fn=lambda x: np.interp(x, xs, ys),
    )


def _trapezoids(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trapezoid areas between knots, from the correctly rounded mean of each y
    pair: (y0 + y1) / 2, or where the sum overflows 0.5*y0 + 0.5*y1 (halves of
    normals are exact); halving first everywhere would round subnormal y."""
    with np.errstate(over="ignore"):
        mean = (ys[:-1] + ys[1:]) / 2.0
    return np.diff(xs) * np.where(np.isinf(mean), 0.5 * ys[:-1] + 0.5 * ys[1:], mean)


def knot_arrays(points: Sequence[tuple[float, float]], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Knot arrays (xs, ys) from (x, y) pairs; ``what`` names the caller in errors.

    Needs at least 2 knots, x strictly increasing from exactly 0 to exactly
    1, and finite y.  Both arrays are C-contiguous float64, so ``np.interp``
    uses them without a copy per call.
    """
    pts = np.array([(float(x), float(y)) for x, y in points]).reshape(-1, 2)
    if len(pts) < 2:
        raise InvalidArgument(f"{what} needs at least 2 knots")
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise InvalidArgument(f"{what} knots must span [0, 1] exactly")
    bad = ~(xs[1:] > xs[:-1])
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise InvalidArgument(f"knot x-values must be strictly increasing at index {i}")
    if not np.isfinite(ys).all():
        raise InvalidArgument("knot y-values must be finite")
    return xs, ys


def quadrature_integral(g: MonotoneFunction, tol: float = 1e-10) -> float:
    """Integral of g over [0, 1] by adaptive quadrature, error <= tol.

    Independent of ``g.closed_form_integral``; the two agree within tol
    for every catalog member and table, which the test suite cross-checks.
    Raises ToleranceNotReached when the error estimate cannot be certified.
    """
    return batched_quadrature(g._fn, 0.0, 1.0, tol=tol, breakpoints=g.kinks).value


def require_monotone(g: MonotoneFunction, op: str, decreasing: bool = False) -> None:
    """Raise NonMonotoneFunction unless g is monotone, and weakly decreasing if asked.

    A function that rises and falls is evaluated at its knots (0, the
    kinks, 1), where a table returns its knot values exactly; the witness
    is the first knot segment whose sign opposes the first signed one.
    """
    if g.direction == INCREASING and decreasing:
        raise NonMonotoneFunction(f"{op} requires a decreasing function; got an increasing one")
    if g.direction not in (DECREASING, CONSTANT, INCREASING):
        knots = np.array([0.0, *g.kinks, 1.0])
        with np.errstate(over="ignore"):  # a difference that overflows keeps its sign
            diffs = np.diff(g.values(knots))
        witness = None
        if _direction_of(diffs) == NON_MONOTONE:
            j = max(int(np.argmax(diffs > 0.0)), int(np.argmax(diffs < 0.0)))
            witness = (float(knots[j]), float(knots[j + 1]))
        raise NonMonotoneFunction(f"{op} requires a monotone function", witness=witness)


def require_convex(g: Callable[[float], float], op: str) -> None:
    """Raise NotConvex unless g is convex: a member as it states (a concave
    one lies above its chord at 0.5), a table when its knot slopes never
    fall, in exact rationals (the witness is the first three knots whose
    slopes do), and any other callable on its caller's word."""
    if not isinstance(g, MonotoneFunction) or g.convex:
        return
    if g.convex is False:
        raise NotConvex(f"{op} requires a convex function", (0.0, 0.5, 1.0))
    from fractions import Fraction  # imported here: only a table's convexity needs it
    knots = np.array([0.0, *g.kinks, 1.0])
    xs, ys = (list(map(Fraction, a.tolist())) for a in (knots, g.values(knots)))
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    for j in range(len(slopes) - 1):
        if slopes[j + 1] < slopes[j]:
            raise NotConvex(f"{op} requires a convex function", tuple(knots[j : j + 3].tolist()))


def _direction_of(diffs: np.ndarray) -> str:
    """The direction that the exact signs of successive differences give."""
    up, down = diffs > 0.0, diffs < 0.0
    if up.any() and down.any():
        return NON_MONOTONE
    return DECREASING if down.any() else INCREASING if up.any() else CONSTANT
