"""Majorization preorder and a convexity-based sum comparison.

x is majorized by y (written x < y here) when, after sorting both in
decreasing order, every prefix sum of x is at most the matching prefix sum
of y and the totals agree: x spreads the same mass more evenly.  For any
convex g, majorization forces sum g(x_i) <= sum g(y_i).  The module also
generates majorized pairs by applying random mean-preserving equalizing
transfers ("Robin Hood" moves), which is the classical way to walk down
the preorder, and bridges to weight vectors, which all share total mass 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._summation import compensated_prefix_sums
from .errors import LengthMismatch, NotConvex, NotMajorized
from .partitions import WeightVector

#: Absolute slack on prefix and total comparisons.
COMPARISON_TOLERANCE = 1e-12

X_MAJORIZED_BY_Y = "x_majorized_by_y"
Y_MAJORIZED_BY_X = "y_majorized_by_x"
BOTH = "both"
INCOMPARABLE = "incomparable"
TOTAL_MISMATCH = "total_mismatch"

VectorLike = Union["RealVector", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class RealVector:
    """Finite real entries, any sign; order does not matter for majorization."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("RealVector needs at least one entry")
        if not all(math.isfinite(v) for v in self.entries):
            raise ValueError("RealVector entries must be finite")

    @property
    def n(self) -> int:
        return len(self.entries)


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
    if isinstance(v, WeightVector):
        return RealVector(v.weights)
    return RealVector(tuple(float(t) for t in np.asarray(v, dtype=float).ravel()))


def is_majorized(
    x: VectorLike, y: VectorLike, tol: float = COMPARISON_TOLERANCE
) -> MajorizationVerdict:
    """Decide the majorization relation between x and y.

    Both vectors are sorted in decreasing order; prefix sums are compared
    with absolute slack ``tol``.  Unequal totals give "total_mismatch";
    prefix margins of both signs give "incomparable"; margins vanishing in
    both directions mean the vectors are permutations of each other
    ("both").
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    if xv.n != yv.n:
        raise LengthMismatch(xv.n, yv.n)
    xs = sorted(xv.entries, reverse=True)
    ys = sorted(yv.entries, reverse=True)
    px = compensated_prefix_sums(xs)[1:]
    py = compensated_prefix_sums(ys)[1:]
    margins = tuple((py - px).tolist())

    if abs(margins[-1]) > tol:
        return MajorizationVerdict(TOTAL_MISMATCH, margins)
    proper = margins[:-1]
    x_under = all(m >= -tol for m in proper)
    y_under = all(m <= tol for m in proper)
    if x_under and y_under:
        relation = BOTH
    elif x_under:
        relation = X_MAJORIZED_BY_Y
    elif y_under:
        relation = Y_MAJORIZED_BY_X
    else:
        relation = INCOMPARABLE
    return MajorizationVerdict(relation, margins)


def _check_convex_on_hull(
    fn: Callable[[float], float], lo: float, hi: float, samples: int
) -> None:
    if lo == hi:
        return
    grid = np.linspace(lo, hi, samples)
    vals = np.array([float(fn(t)) for t in grid])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    bad = second < -COMPARISON_TOLERANCE
    if bad.any():
        i = int(np.argmax(bad))
        raise NotConvex((float(grid[i]), float(grid[i + 1]), float(grid[i + 2])))


def karamata_check(
    g: Callable[[float], float],
    x: VectorLike,
    y: VectorLike,
    samples: int = 257,
) -> KaramataReport:
    """Check sum g(x_i) <= sum g(y_i) for x majorized by y and convex g.

    ``g`` may be any scalar callable (including a catalog function, whose
    domain then restricts the entries to [0, 1]).  Convexity is guarded by
    sampled second differences on the hull of all entries; majorization by
    :func:`is_majorized`.  Raises NotMajorized / NotConvex when the
    hypotheses fail.  The sums use :func:`math.fsum` directly, not
    ``exact_sum``: g is a scalar callable, so its values arrive one at a
    time from a generator, and collecting them into an array first would
    only add a copy for the same correctly rounded result.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    verdict = is_majorized(xv, yv)
    if verdict.relation not in (X_MAJORIZED_BY_Y, BOTH):
        raise NotMajorized(verdict.relation)
    entries = xv.entries + yv.entries
    _check_convex_on_hull(g, min(entries), max(entries), samples)
    sum_x = math.fsum(float(g(t)) for t in xv.entries)
    sum_y = math.fsum(float(g(t)) for t in yv.entries)
    margin = sum_y - sum_x
    return KaramataReport(
        margin=margin,
        holds=margin >= -COMPARISON_TOLERANCE,
        sum_x=sum_x,
        sum_y=sum_y,
    )


def generate_majorized_pair(
    n: int, transfers: int, seed: int
) -> tuple[RealVector, RealVector]:
    """Random pair with x majorized by y, by equalizing transfers.

    y is a random nonnegative vector; x starts as a copy and receives
    ``transfers`` random mean-preserving moves, each shifting at most half
    the difference from a larger entry to a smaller one.  Every move walks
    down the majorization preorder, so x < y is guaranteed by
    construction.  Deterministic for a given (n, transfers, seed).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if transfers < 0:
        raise ValueError(f"transfers must be >= 0, got {transfers}")
    rng = np.random.default_rng(seed)
    y = rng.random(n)
    x = y.copy()
    for _ in range(transfers):
        i, j = rng.choice(n, size=2, replace=False)
        if x[i] < x[j]:
            i, j = j, i
        delta = rng.random() * 0.5 * (x[i] - x[j])
        x[i] -= delta
        x[j] += delta
    return as_real_vector(x), as_real_vector(y)


def cumulative_majorization_bridge(w1: WeightVector, w2: WeightVector) -> MajorizationVerdict:
    """Majorization verdict between two weight vectors of equal length.

    Both sum to 1, so the total check holds automatically and the verdict
    ranks how evenly the two vectors spread their mass; the uniform vector
    is majorized by every other weight vector of the same length.
    """
    if w1.n != w2.n:
        raise LengthMismatch(w1.n, w2.n)
    return is_majorized(w1.weights, w2.weights)
