"""Adaptive composite Simpson quadrature with an error estimate.

The integrator bisects panels and accepts one when the classic Richardson
test ``|S_half - S_whole| <= 15 * local_tol`` holds after at least
``_MIN_DEPTH`` bisections (or unconditionally at ``_MAX_DEPTH``), taking the
extrapolated value ``S_half + (S_half - S_whole) / 15``; a rejected panel
is replaced by its two halves, each with half its local tolerance.  Known
kinks can be passed as ``breakpoints`` so panels never straddle them.

Evaluation is level-synchronous: the live panels of one depth are held as
arrays, and one call of a vectorized integrand evaluates both new midpoints
of every panel, in the manner of Gander and Gautschi's adaptive Simpson
rule (*Adaptive Quadrature -- Revisited*, BIT 40, 2000) taken a level at a
time.  A level is processed in blocks of at most ``_BLOCK`` panels, the
left block and its descendants first, so besides the first panels (one
per interval between breakpoints) at most one waiting block per depth is
held, whatever the integrand does; what grows is three floats per accepted
panel.  The accept/split rule sees each panel exactly
as a depth-first stack loop would, so the panel tree, the evaluation points
and the evaluation count are that loop's.  At the end the accepted panels
are put in left-to-right order, their values are added with Neumaier
compensation and their error estimates with a plain left-to-right sum, as
the loop did one panel at a time, so the result is the same bit for bit
when the integrand returns the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._summation import compensated_prefix_sums
from .errors import NonFiniteValue, ToleranceNotReached

# Accept a panel only after this many bisections, so a symmetric integrand
# cannot fool the very first error estimate.
_MIN_DEPTH = 2
_MAX_DEPTH = 48
#: Most panels evaluated in one call of the integrand; it bounds the
#: working set at about _MAX_DEPTH blocks of 8 floats per panel.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _simpson(fa, fm, fb, width):
    with np.errstate(over="ignore", invalid="ignore"):  # refused in batched_quadrature
        return width * (fa + 4.0 * fm + fb) / 6.0


def _push(stack: list, depth: int, panels: np.ndarray) -> None:
    """Push ``panels`` (columns in left-to-right order) in blocks, leftmost on top."""
    n = panels.shape[1]
    for start in range(((n - 1) // _BLOCK) * _BLOCK, -1, -_BLOCK):
        stack.append((depth, panels[:, start:start + _BLOCK]))


def batched_quadrature(
    fv: Callable[[np.ndarray], np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integral of a vectorized ``fv`` over [a, b] to absolute error ``tol``.

    ``fv`` maps a float64 array of points to an array of the values there.
    Raises ToleranceNotReached when the accumulated error estimate still
    exceeds ``tol`` after the subdivision depth limit, and NonFiniteValue as
    soon as a block's Simpson sums are not finite, which no split can mend.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not b > a:
        raise ValueError(f"empty integration interval [{a!r}, {b!r}]")

    def f(xs: np.ndarray) -> np.ndarray:
        return np.asarray(fv(xs), dtype=float)

    inner = np.unique(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate(([a], inner[(a < inner) & (inner < b)], [b]))
    x0, x1 = edges[:-1], edges[1:]
    xm = 0.5 * (x0 + x1)
    n = x0.size
    fx = f(np.concatenate((x0, x1, xm)))
    f0, f1, fm = fx[:n], fx[n:2 * n], fx[2 * n:]
    evals = 3 * n
    width = x1 - x0
    stack: list = []
    # one column per panel: x0, f0, x1, f1, midpoint, f_mid, S(x0, x1), local_tol;
    # all panels of a block have the same depth
    _push(stack, 0, np.array([x0, f0, x1, f1, xm, fm, _simpson(f0, fm, f1, width), tol * width / (b - a)]))
    lefts, values, errs = [], [], []  # of the accepted panels, per block

    while stack:
        depth, (x0, f0, x1, f1, xm, fm, s_whole, loc_tol) = stack.pop()
        k = x0.size
        ml = 0.5 * (x0 + xm)
        mr = 0.5 * (xm + x1)
        fx = f(np.concatenate((ml, mr)))
        fml, fmr = fx[:k], fx[k:]
        evals += 2 * k
        s_left = _simpson(f0, fml, fm, xm - x0)
        s_right = _simpson(fm, fmr, f1, x1 - xm)
        with np.errstate(over="ignore", invalid="ignore"):
            s_half = s_left + s_right
            delta = s_half - s_whole
        if not np.isfinite(delta).all():  # a non-finite sum makes delta non-finite too
            raise NonFiniteValue("a Simpson sum of the integrand")
        size = np.abs(delta)
        accept = ((size <= 15.0 * loc_tol) & (depth >= _MIN_DEPTH)) | (depth >= _MAX_DEPTH)
        lefts.append(x0[accept])
        values.append((s_half + delta / 15.0)[accept])
        errs.append((size / 15.0)[accept])
        split = ~accept
        if split.any():
            children = np.empty((8, 2 * int(np.count_nonzero(split))))
            children[:, 0::2] = np.array([x0, f0, xm, fm, ml, fml, s_left, loc_tol])[:, split]
            children[:, 1::2] = np.array([xm, fm, x1, f1, mr, fmr, s_right, loc_tol])[:, split]
            children[7] /= 2.0
            _push(stack, depth + 1, children)

    # Left edges tie only where all but one of the tied panels have zero
    # width; those add +-0.0, which leaves a compensated sum unchanged
    # wherever it comes, so the order among ties does not matter.
    order = np.argsort(np.concatenate(lefts))
    del lefts
    total = float(compensated_prefix_sums(np.concatenate(values)[order])[-1])
    del values
    err_total = float(np.cumsum(np.concatenate(errs)[order])[-1])
    if err_total > tol:
        raise ToleranceNotReached(total, err_total)
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evals)


def adaptive_quadrature(
    fn: Callable[[float], float],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Estimate the integral of a scalar ``fn`` over [a, b] to absolute error ``tol``.

    ``fn`` is called once per point, with a Python float; the panels and
    the result are those of :func:`batched_quadrature`.  Raises
    ToleranceNotReached when the accumulated error estimate still exceeds
    ``tol`` after the subdivision depth limit.
    """
    return batched_quadrature(
        lambda xs: [float(fn(x)) for x in xs.tolist()], a, b, tol, breakpoints
    )
