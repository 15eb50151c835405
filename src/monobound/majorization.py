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

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._summation import compensated_prefix_sums, exact_sum
from .errors import LengthMismatch, NotConvex, NotMajorized, SumOverflow
from .partitions import WeightVector, _ArrayBacked, _float_array

#: Relative slack on prefix and total comparisons (see :func:`is_majorized`).
COMPARISON_TOLERANCE = 1e-12

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

    def __post_init__(self) -> None:
        a = _float_array(self.array)
        if a.size == 0:
            raise ValueError("RealVector needs at least one entry")
        if not np.isfinite(a).all():
            raise ValueError("RealVector entries must be finite")
        self._freeze(a)

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
    """sum g(y) - sum g(x) for majorized x < y and convex g."""

    margin: float
    holds: bool
    sum_x: float
    sum_y: float


def as_real_vector(v: VectorLike) -> RealVector:
    if isinstance(v, RealVector):
        return v
    if isinstance(v, WeightVector):  # finite and read-only already: share it
        shared = object.__new__(RealVector)
        shared._freeze(v.array)
        return shared
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


def _check_convex_on_hull(fn: Callable[[float], float], lo: float, hi: float, samples: int) -> None:
    if lo == hi:
        return
    grid = np.linspace(lo, hi, samples)
    vals = np.array([float(fn(t)) for t in grid])
    v0, v1, v2 = vals[:-2], vals[1:-1], vals[2:]
    # a few ulps of |v0| + 2|v1| + |v2| cover the rounding of large values
    slack = COMPARISON_TOLERANCE + 4 * np.finfo(float).eps * (abs(v0) + 2 * abs(v1) + abs(v2))
    bad = v0 - 2.0 * v1 + v2 < -slack
    if bad.any():
        i = int(np.argmax(bad))
        raise NotConvex((float(grid[i]), float(grid[i + 1]), float(grid[i + 2])))


def karamata_check(
    g: Callable[[float], float], x: VectorLike, y: VectorLike, samples: int = 257
) -> KaramataReport:
    """Check sum g(x_i) <= sum g(y_i) for x majorized by y and convex g.

    ``g`` may be any scalar callable (including a catalog function, whose
    domain then restricts the entries to [0, 1]).  Convexity is guarded by
    sampled second differences on the hull of all entries; majorization by
    :func:`is_majorized`.  Raises NotMajorized / NotConvex when the
    hypotheses fail.  g is a scalar callable, so its values arrive one at
    a time and are summed by :func:`math.fsum` as they come.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    verdict = is_majorized(xv, yv)
    if verdict.relation not in (X_MAJORIZED_BY_Y, BOTH):
        raise NotMajorized(verdict.relation)
    hull = np.concatenate((xv.array, yv.array))
    _check_convex_on_hull(g, float(hull.min()), float(hull.max()), samples)
    sum_x = math.fsum(float(g(t)) for t in xv.array.tolist())
    sum_y = math.fsum(float(g(t)) for t in yv.array.tolist())
    margin = sum_y - sum_x
    return KaramataReport(margin, margin >= -COMPARISON_TOLERANCE, sum_x, sum_y)


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


def cumulative_majorization_bridge(w1: WeightVector, w2: WeightVector) -> MajorizationVerdict:
    """Majorization verdict between two weight vectors of equal length.

    Both sum to 1, so the total check holds automatically and the verdict
    ranks how evenly the two vectors spread their mass; the uniform vector
    is majorized by every other weight vector of the same length.
    """
    if w1.n != w2.n:
        raise LengthMismatch(w1.n, w2.n)
    return is_majorized(w1, w2)
