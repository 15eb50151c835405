"""Densities on [0, 1], their CDFs, and the change-of-variables identity.

For any probability density f on [0, 1] with CDF F, substituting u = F(x)
gives the distribution-free identity

    integral_0^1 f(x) g(F(x)) dx  =  integral_0^1 g(u) du

for integrable g.  The right side is the expectation of g(U) for U uniform
on [0, 1], so the discrete right-endpoint sum over any cumulative partition
is an approximation of that expectation from below (for decreasing g).
This module verifies the identity numerically as a residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._summation import _finite_sum, compensated_prefix_sums, exact_sum
from .errors import InvalidArgument
from .functions import MonotoneFunction, _UnitIntervalFunction, _trapezoids, knot_arrays
from .partitions import SUM_TOLERANCE
from .quadrature import batched_quadrature


@dataclass(frozen=True)
class Density(_UnitIntervalFunction):
    """Probability density on [0, 1] and its CDF ``cdf`` (an array of points to
    F, clamped into [0, 1]), built together by a constructor that knows the
    mass in closed form and that f is nonnegative."""

    kinks: tuple[float, ...] = ()
    _fn: Callable = field(repr=False, compare=False, default=None)
    cdf: Callable = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class TransformReport:
    """Residual check of the substitution identity; ``tol`` is the bound in force."""

    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


def uniform_density() -> Density:
    """f(x) = 1, the table through (0, 1) and (1, 1)."""
    return tabulated_density([(0.0, 1.0), (1.0, 1.0)])


def polynomial_density(coefficients: Sequence[float]) -> Density:
    """f(x) = c0 + c1*x + ... ; nonnegative, and its antiderivative's value at
    1, the mass sum_j c_j/(j + 1), within 1e-9 of 1; the CDF is their ratio.

    The sign is checked at f's minimum on [0, 1], which lies at 0, at 1 or
    at a real root of f' (taken as the real parts of all its roots, clipped
    into [0, 1]; top coefficients of f' below 2^-52 of its largest are
    dropped first); f may dip to -1e-12.
    """
    coeffs = tuple(float(c) for c in coefficients)
    if not coeffs:
        raise InvalidArgument("polynomial coefficients must not be empty")
    if not all(math.isfinite(c) for c in coeffs):
        raise InvalidArgument("polynomial coefficients must be finite")
    anti = (0.0,) + tuple(c / (j + 1.0) for j, c in enumerate(coeffs))
    mass = _finite_sum("the mass of the polynomial", lambda: exact_sum(anti))
    if abs(mass - 1.0) > SUM_TOLERANCE:
        raise InvalidArgument(f"density has mass {mass!r} on [0, 1]; expected 1 within {SUM_TOLERANCE:g}")
    P = np.polynomial.polynomial
    d = P.polyder(coeffs)
    d = P.polytrim(d, np.abs(d).max() * 2.0**-52)  # else a negligible top term overflows the companion matrix
    xs = np.concatenate(([0.0, 1.0], np.clip(P.polyroots(d).real, 0.0, 1.0)))
    vals = P.polyval(xs, coeffs)
    i = int(np.argmin(vals))
    if vals[i] < -1e-12:
        raise InvalidArgument(f"density is negative: f({float(xs[i])!r}) = {float(vals[i])!r}")
    return Density(
        _fn=lambda x: P.polyval(x, coeffs),
        cdf=lambda x: np.clip(P.polyval(x, anti) / mass, 0.0, 1.0),
    )


def triangular_density(peak: float) -> Density:
    """Triangle on [0, 1] with apex f(peak) = 2: the table through (0, 0),
    (peak, 2) and (1, 0), less the end knot that a peak at 0 or 1 replaces.
    Its trapezoid mass p + fl(1 - p) rounds to exactly 1, so no value is
    rescaled."""
    p = float(peak)
    if not 0.0 <= p <= 1.0:
        raise InvalidArgument(f"peak must lie in [0, 1], got {p!r}")
    knots = [(0.0, 0.0), (p, 2.0), (1.0, 0.0)]
    return tabulated_density(knots[p == 0.0 : 3 - (p == 1.0)])


def tabulated_density(knots: Sequence[tuple[float, float]]) -> Density:
    """Piecewise-linear density through knots spanning [0, 1].

    Knot values are rescaled so the trapezoid mass is exactly 1; negative
    values are rejected before rescaling.  The CDF is the cumulative
    trapezoid table at the knots with the exact quadratic interpolant of
    the linear segments in between, which is monotone and cannot overshoot
    [0, 1]; F is 0 left of 0 and 1 right of 1.
    """
    xs, ys = knot_arrays(knots, "tabulated density")
    if (ys < 0.0).any():
        raise InvalidArgument("tabulated density values must be finite and nonnegative")
    mass = exact_sum(_trapezoids(xs, ys))
    if mass <= 0.0:
        raise InvalidArgument(
            f"tabulated density has mass {mass!r} on [0, 1]; "
            "its values are rescaled to mass 1, so any positive mass is accepted"
        )
    ys = ys / mass
    table = compensated_prefix_sums(_trapezoids(xs, ys))
    table[-1] = 1.0

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)  # past the ends, the end quadratics bend back
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        t = x - xs[idx]
        h = xs[idx + 1] - xs[idx]
        out = table[idx] + t * ys[idx] + t * t * (ys[idx + 1] - ys[idx]) / (2.0 * h)
        return np.clip(out, 0.0, 1.0)

    return Density(
        kinks=tuple(xs[1:-1].tolist()),
        _fn=lambda x: np.interp(x, xs, ys),
        cdf=cdf,
    )


def _preimages(cdf: Callable, ts: Sequence[float]) -> np.ndarray:
    """The least x in [0, 1] with F(x) >= t for each t, to within 2^-60, by bisection."""
    lo, hi, t = np.zeros(len(ts)), np.ones(len(ts)), np.asarray(ts, dtype=float)
    for _ in range(60 if len(ts) else 0):  # a g without kinks costs no call of F
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


def pit_identity_check(f: Density, g: MonotoneFunction, tol: float = 1e-8) -> TransformReport:
    """Verify integral of f*g(F) equals integral of g, to ``tol`` times g's scale.

    The scale M is max |g| at 0, g's kinks and 1 (exact for a table or a
    monotone g), and the report's ``tol`` is bound = tol * max(M, 2^-1022).
    The left side is integrated adaptively to bound/2 with panel edges at
    the kinks of f and where F crosses a kink of g, g (and bound/2, and
    back the result) taken times the exact 2^274 when M < 2^-800; the right
    side is g's closed form.  A pass certifies the residual, not the identity.
    """
    if not 0.0 < tol < 1.0:  # tol * M then cannot overflow; from 2 up, every residual passes
        raise InvalidArgument(f"tol must lie in (0, 1), got {tol!r}")
    knots = np.array([0.0, *g.kinks, 1.0])  # those require_monotone reads
    scale = _finite_sum("a value of g at its knots", lambda: float(np.abs(g.values(knots)).max()))
    bound = tol * max(scale, 2.0**-1022)
    pdf, cdf_fn, gfn = f._fn, f.cdf, g._fn
    up = 2.0**274 if scale < 2.0**-800 else 1.0  # as in _summation._blocked_sum; 2^1074 would overflow
    if up > 1.0:  # else f * g of subnormal scale rounds to 0
        gfn = lambda u: up * g._fn(u)
    kinks = f.kinks + tuple(_preimages(cdf_fn, g.kinks).tolist())
    q = batched_quadrature(lambda x: pdf(x) * gfn(cdf_fn(x)), tol=bound / 2.0 * up, breakpoints=kinks)
    lhs = q.value / up
    rhs = g.closed_form_integral
    residual = abs(lhs - rhs)
    return TransformReport(lhs=lhs, rhs=rhs, residual=residual, tol=bound, passed=residual <= bound)
