"""Adaptive composite Simpson quadrature with an error estimate.

The integrator bisects recursively and accepts a panel when the classic
Richardson test ``|S_half - S_whole| <= 15 * local_tol`` holds, returning
the extrapolated value ``S_half + (S_half - S_whole) / 15``.  Known kinks
can be passed as ``breakpoints`` so panels never straddle them.  Panels are
processed left to right and accumulated with compensated summation, so the
result is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._summation import NeumaierSum
from .errors import ToleranceNotReached

# Accept a panel only after this many bisections, so a symmetric integrand
# cannot fool the very first error estimate.
_MIN_DEPTH = 2
_MAX_DEPTH = 48


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_quadrature(
    fn: Callable[[float], float],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Estimate the integral of ``fn`` over [a, b] to absolute error ``tol``.

    Raises ToleranceNotReached when the accumulated error estimate still
    exceeds ``tol`` after the subdivision depth limit.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not b > a:
        raise ValueError(f"empty integration interval [{a!r}, {b!r}]")

    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        return float(fn(x))

    edges = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    total = NeumaierSum()
    err_total = 0.0
    span = b - a

    for left, right in zip(edges[:-1], edges[1:]):
        panel_tol = tol * (right - left) / span
        fl, fr = f(left), f(right)
        m = 0.5 * (left + right)
        fm = f(m)
        # stack entries: (x0, f0, x1, f1, midpoint, f_mid, S(x0,x1), local_tol, depth)
        stack = [(left, fl, right, fr, m, fm, _simpson(fl, fm, fr, right - left), panel_tol, 0)]
        while stack:
            x0, f0, x1, f1, xm, fmid, s_whole, loc_tol, depth = stack.pop()
            ml = 0.5 * (x0 + xm)
            mr = 0.5 * (xm + x1)
            fml, fmr = f(ml), f(mr)
            s_left = _simpson(f0, fml, fmid, xm - x0)
            s_right = _simpson(fmid, fmr, f1, x1 - xm)
            delta = (s_left + s_right) - s_whole
            if (abs(delta) <= 15.0 * loc_tol and depth >= _MIN_DEPTH) or depth >= _MAX_DEPTH:
                total.add(s_left + s_right + delta / 15.0)
                err_total += abs(delta) / 15.0
            else:
                # right half pushed first so the left half is processed next
                stack.append((xm, fmid, x1, f1, mr, fmr, s_right, loc_tol / 2.0, depth + 1))
                stack.append((x0, f0, xm, fmid, ml, fml, s_left, loc_tol / 2.0, depth + 1))

    if err_total > tol:
        raise ToleranceNotReached(total.value, err_total)
    return QuadratureResult(value=total.value, error_estimate=err_total, evaluations=evals)
