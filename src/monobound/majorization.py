"""Majorization preorder and a convexity-based sum comparison.

x is majorized by y (written x < y here) when, after sorting both in
decreasing order, every prefix sum of x is at most the matching prefix sum
of y and the totals agree: x spreads the same mass more evenly.  For any
convex g, majorization forces sum g(x_i) <= sum g(y_i).  Majorized pairs
are generated by random mean-preserving equalizing ("Robin Hood") moves in
rounds: one random permutation pairs the entries disjointly, and each pair
moves a random share, at most half, of its difference from the larger entry
to the smaller.  A round is a product of disjoint T-transforms, a doubly
stochastic matrix, so x < y holds by construction (Hardy-Littlewood-Polya).
Each vector holds one read-only float64 array; a weight vector's is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._summation import compensated_prefix_sums, exact_sum
from .errors import LengthMismatch, NonFiniteValue, NotConvex, NotMajorized, SumOverflow
from .partitions import WeightVector, _ArrayBacked

#: Relative slack on prefix and total comparisons (see :func:`is_majorized`),
#: and the absolute part of the slack on values and sums of g.
COMPARISON_TOLERANCE = 1e-12
#: A few ulps: the relative part of the slack on values and sums of g, which
#: each carry a rounding of g and of the sum.
ROUNDING_SLACK = 4 * float(np.finfo(float).eps)
#: Evenly spaced points of the hull at which ``karamata_check`` tests convexity.
CONVEXITY_SAMPLES = 257

X_MAJORIZED_BY_Y = "x_majorized_by_y"
Y_MAJORIZED_BY_X = "y_majorized_by_x"
BOTH = "both"
INCOMPARABLE = "incomparable"
TOTAL_MISMATCH = "total_mismatch"

VectorLike = Union["RealVector", Sequence[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class RealVector(_ArrayBacked):
    """Finite real entries, any sign; order does not matter for majorization."""

    array: np.ndarray

    @staticmethod
    def _validated(a: np.ndarray) -> np.ndarray:
        if a.size == 0:
            raise ValueError("RealVector needs at least one entry")
        if not np.isfinite(a).all():
            raise ValueError("RealVector entries must be finite")
        return a

    @property
    def entries(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size


@dataclass(frozen=True)
class MajorizationVerdict:
    """Relation between two vectors plus the prefix-sum margins.

    ``prefix_margins[k-1]`` is (sum of k largest of y) - (sum of k largest
    of x); the final entry is the total difference.
    """

    relation: str
    prefix_margins: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"relation": self.relation, "prefix_margins": list(self.prefix_margins)}


@dataclass(frozen=True)
class KaramataReport:
    """sum g(y) - sum g(x) for majorized x < y and convex g.

    ``holds`` allows the margin to fall below zero by ``COMPARISON_TOLERANCE``
    plus ``ROUNDING_SLACK`` times sum |g(x_i)| + sum |g(y_i)|: the rounding of
    g's values and of the sums scales with them.
    """

    margin: float
    holds: bool
    sum_x: float
    sum_y: float


def as_real_vector(v: VectorLike) -> RealVector:
    if isinstance(v, RealVector):
        return v
    if isinstance(v, WeightVector):  # finite and read-only already: share it
        return RealVector._adopt(v.array, checked=True)
    return RealVector(np.asarray(v, dtype=float).ravel())


def is_majorized(x: VectorLike, y: VectorLike, tol: float = COMPARISON_TOLERANCE) -> MajorizationVerdict:
    """Decide the majorization relation between x and y.

    Both vectors are sorted in decreasing order; prefix sums are compared
    with slack ``tol * max(sum |x_i|, sum |y_i|)``, so ``tol`` is relative
    to the vectors' scale.  Unequal totals give "total_mismatch"; prefix
    margins of both signs give "incomparable"; margins vanishing in both
    directions mean the vectors are permutations of each other ("both").
    Raises SumOverflow when a prefix sum, margin or sum |.| overflows.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    if xv.n != yv.n:
        raise LengthMismatch(xv.n, yv.n)
    xs, ys = np.sort(xv.array)[::-1], np.sort(yv.array)[::-1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            margins = compensated_prefix_sums(ys)[1:] - compensated_prefix_sums(xs)[1:]
        slack = tol * max(exact_sum(np.abs(xs)), exact_sum(np.abs(ys)))
    except (FloatingPointError, OverflowError):
        raise SumOverflow() from None
    prefix_margins = tuple(margins.tolist())
    if abs(margins[-1]) > slack:
        return MajorizationVerdict(TOTAL_MISMATCH, prefix_margins)
    y_under = bool((margins[:-1] <= slack).all())
    if (margins[:-1] >= -slack).all():
        relation = BOTH if y_under else X_MAJORIZED_BY_Y
    else:
        relation = Y_MAJORIZED_BY_X if y_under else INCOMPARABLE
    return MajorizationVerdict(relation, prefix_margins)


def _g_values(g: Callable[[float], float], points: np.ndarray, where: str) -> np.ndarray:
    """g at each point; raises NonFiniteValue if one overflows or is not finite."""
    try:
        values = np.array([float(g(t)) for t in points.tolist()])
    except OverflowError:
        raise NonFiniteValue(f"g on {where}") from None
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"g on {where}")
    return values


def _check_convex_on_hull(fn: Callable[[float], float], lo: float, hi: float) -> None:
    if lo == hi:
        return
    grid = np.linspace(lo, hi, CONVEXITY_SAMPLES)
    vals = _g_values(fn, grid, "the hull of x and y")
    # quarter second differences, which cannot overflow for finite values;
    # a few ulps of |v0| + 2|v1| + |v2| cover the rounding of large values
    v0, v1, v2 = 0.25 * vals[:-2], 0.5 * vals[1:-1], 0.25 * vals[2:]
    slack = 0.25 * COMPARISON_TOLERANCE + ROUNDING_SLACK * (abs(v0) + abs(v1) + abs(v2))
    bad = v0 - v1 + v2 < -slack
    if bad.any():
        i = int(np.argmax(bad))
        raise NotConvex((float(grid[i]), float(grid[i + 1]), float(grid[i + 2])))


def karamata_check(g: Callable[[float], float], x: VectorLike, y: VectorLike) -> KaramataReport:
    """Check sum g(x_i) <= sum g(y_i) for x majorized by y and convex g.

    ``g`` may be any scalar callable (including a catalog function, whose
    domain then restricts the entries to [0, 1]).  Convexity is guarded by
    sampled second differences on the hull of all entries; majorization by
    :func:`is_majorized`.  Raises NotMajorized / NotConvex when the
    hypotheses fail, and NonFiniteValue when a value of g, or the sum of
    |g| over x and y, overflows or is not finite.  g is a scalar callable,
    evaluated once per entry; the sums are :func:`exact_sum`'s, which are
    :func:`math.fsum`'s bit for bit.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    verdict = is_majorized(xv, yv)
    if verdict.relation not in (X_MAJORIZED_BY_Y, BOTH):
        raise NotMajorized(verdict.relation)
    hull = np.concatenate((xv.array, yv.array))
    _check_convex_on_hull(g, float(hull.min()), float(hull.max()))
    gx, gy = _g_values(g, xv.array, "x"), _g_values(g, yv.array, "y")
    try:
        scale = exact_sum(np.abs(gx)) + exact_sum(np.abs(gy))
    except OverflowError:
        scale = np.inf
    if not np.isfinite(scale):
        raise NonFiniteValue("the sum of |g| over x and y")
    # both sums and the margin are at most scale in magnitude: all finite
    sum_x, sum_y = exact_sum(gx), exact_sum(gy)
    margin = sum_y - sum_x
    holds = margin >= -(COMPARISON_TOLERANCE + ROUNDING_SLACK * scale)
    return KaramataReport(margin, holds, sum_x, sum_y)


def generate_majorized_pair(n: int, transfers: int, seed: int) -> tuple[RealVector, RealVector]:
    """Random pair with x majorized by y, by equalizing transfers in rounds.

    y is a random nonnegative vector; x starts as a copy and receives
    ``transfers`` random mean-preserving moves, each shifting at most half
    the difference from a larger entry to a smaller one.  Each round makes
    min(n // 2, transfers left) moves on disjoint index pairs drawn from one
    permutation, and walks down the majorization preorder, so x < y is
    guaranteed by construction.  Deterministic for a given (n, transfers, seed).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if transfers < 0:
        raise ValueError(f"transfers must be >= 0, got {transfers}")
    rng = np.random.default_rng(seed)
    y = rng.random(n)
    x = y.copy()
    while transfers:
        m = min(n // 2, transfers)
        i, j = rng.permutation(n)[: 2 * m].reshape(2, m)
        # signed, so each x_i moves toward its x_j whichever is larger
        delta = rng.random(m) * 0.5 * (x[i] - x[j])
        x[i] -= delta
        x[j] += delta
        transfers -= m
    return RealVector(x), RealVector(y)
