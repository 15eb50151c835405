"""Adaptive Gauss–Kronrod quadrature with an error estimate.

Each panel gets QUADPACK's G7/K15 pair (Piessens et al., 1983; Laurie, Math.
Comp. 66, 1997): value K15, error estimate |K15 - G7| floored at 50 eps
times the K15 sum of |f|.  A panel is accepted when the estimate is within
its local tolerance, when |K15 - G7| is at that rounding level, or at
``_MAX_DEPTH``; otherwise it is halved, and so is its tolerance.  The nodes
are interior, so pass known kinks as ``breakpoints``: one between a panel's
edge and its outermost node goes unseen.

One call of a vectorized integrand evaluates the 15 nodes of a block of at
most ``_BLOCK`` live panels of one depth, taken depth first; what grows is
two floats per accepted panel.  The value and the error estimate are
correctly rounded sums over the accepted panels, so no bit depends on the
order in which panels are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._summation import exact_sum
from .errors import InvalidArgument, NonFiniteValue, ToleranceNotReached

_MAX_DEPTH = 48
#: Most panels evaluated in one call of the integrand: the working set is about
#: _MAX_DEPTH waiting blocks of 3 floats per panel, plus 30 per panel in hand.
_BLOCK = 1 << 14

# G7/K15 on [-1, 1]: the K15 nodes from -1 up with their weights _K15; the
# G7 nodes are the odd-indexed ones, with weights _G7.
_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_NODES = np.array([-x for x in _X] + [0.0] + list(_X[::-1]))[:, None]
_K15 = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_K15 = _K15 + _K15[-2::-1]
_G7 = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_G7 = _G7 + _G7[-2::-1]
_ROUNDING = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _gk15(fx, x0, x1):
    """K15 value, error estimate and rounding floor of panels [x0, x1] from their
    node values ``fx``, summed row by row so that no bit depends on the block."""
    kronrod = gauss = absolute = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused in batched_quadrature
        for j, w in enumerate(_K15):
            kronrod = kronrod + w * fx[j]
            absolute = absolute + w * abs(fx[j])
        for j, w in enumerate(_G7):
            gauss = gauss + w * fx[2 * j + 1]
        half = 0.5 * (x1 - x0)
        floor = half * (_ROUNDING * absolute)
        return half * kronrod, np.maximum(half * abs(kronrod - gauss), floor), floor


def batched_quadrature(
    fv: Callable[[np.ndarray], np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integral of a vectorized ``fv`` over [a, b] to absolute error ``tol``.

    ``fv`` maps a float64 array of points to an array of the values there.
    Raises ToleranceNotReached when the summed error estimate exceeds ``tol``
    (at the depth limit, or for a ``tol`` below float64 rounding), and
    NonFiniteValue as soon as a block's sums are not finite, which no split
    can mend, or when their total overflows.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgument(f"tol must be positive and finite, got {tol!r}")
    if not b > a:
        raise InvalidArgument(f"empty integration interval [{a!r}, {b!r}]")

    inner = np.unique(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate(([a], inner[(a < inner) & (inner < b)], [b]))
    # one column per panel: x0, x1, local_tol; all panels of an entry have the same depth
    stack = [(0, np.array([edges[:-1], edges[1:], tol * np.diff(edges) / (b - a)]))]
    values, errs = [], []  # of the accepted panels, per block
    evals = 0

    while stack:
        depth, panels = stack.pop()
        if panels.shape[1] > _BLOCK:
            stack.append((depth, panels[:, _BLOCK:]))
        x0, x1, loc_tol = panels[:, :_BLOCK]
        xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * _NODES  # one row per node
        fx = np.asarray(fv(xs.ravel()), dtype=float).reshape(xs.shape)
        evals += xs.size
        value, err, floor = _gk15(fx, x0, x1)
        if not np.isfinite(err).all():  # a non-finite sum makes err non-finite too
            raise NonFiniteValue("a quadrature sum of the integrand")
        accept = (err <= loc_tol) | (err <= floor) | (depth >= _MAX_DEPTH)
        values.append(value[accept])
        errs.append(err[accept])
        split = ~accept
        if split.any():
            x0, x1, loc_tol = x0[split], x1[split], loc_tol[split]
            xm = 0.5 * (x0 + x1)
            children = np.empty((3, 2 * x0.size))
            children[:, 0::2] = x0, xm, 0.5 * loc_tol
            children[:, 1::2] = xm, x1, 0.5 * loc_tol
            stack.append((depth + 1, children))

    try:
        total, err_total = exact_sum(np.concatenate(values)), exact_sum(np.concatenate(errs))
    except OverflowError:  # the exact total exceeds float64
        raise NonFiniteValue("a quadrature sum of the integrand") from None
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

    ``fn`` is called once per point, with a Python float; the panels, the
    result and the exceptions are those of :func:`batched_quadrature`.
    """
    return batched_quadrature(
        lambda xs: [float(fn(x)) for x in xs.tolist()], a, b, tol, breakpoints
    )
