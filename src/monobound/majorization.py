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

from ._summation import _finite_sum, compensated_prefix_sums, exact_sum
from .errors import InvalidArgument, NonFiniteValue, NotMajorized
from .functions import MonotoneFunction, require_convex
from .partitions import WeightVector, _ArrayBacked

#: A few ulps: the relative slack on values and sums of g, which carry a
#: rounding of g and of the sum, and on the rounded prefix margins.
ROUNDING_SLACK = 4 * float(np.finfo(float).eps)

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
            raise InvalidArgument("RealVector needs at least one entry")
        if not np.isfinite(a).all():
            raise InvalidArgument("RealVector entries must be finite")
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

    ``holds`` lets the margin fall below zero by ``ROUNDING_SLACK`` times
    sum |g(x_i)| + sum |g(y_i)| (the rounding of g and of the sums), and by
    what the slack rho of :func:`is_majorized` lets through.  By Abel
    summation, as in Karamata's proof, the margin is sum_k (c_k - c_(k+1))
    D_k + c_n D_n for the prefix margins D_k and the falling chord slopes
    c_k of g between the k-th largest x and y, all in [s_lo, s_hi]: the
    slopes between the two lowest and the two highest distinct entries,
    moved out by ``ROUNDING_SLACK`` times their two |g|.  So it is at least
    -max(0, s_hi - s_lo) * max(0, -min D_k) - max(|s_lo|, |s_hi|) * |D_n|
    in exact rationals, each D_k widened by its rounding, rho.
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


def _rho(xa: np.ndarray, ya: np.ndarray) -> float:
    """rho = ROUNDING_SLACK * sum |x_i| + ROUNDING_SLACK * sum |y_i|, scaled term by term so as not to overflow."""
    return _finite_sum("a sum of x or y", lambda: sum(ROUNDING_SLACK * exact_sum(np.abs(a)) for a in (xa, ya)))


def is_majorized(x: VectorLike, y: VectorLike) -> MajorizationVerdict:
    """Decide the majorization relation between x and y.

    Both vectors are sorted in decreasing order; prefix sums are compared
    with slack rho = ``ROUNDING_SLACK`` * (sum |x_i| + sum |y_i|), the
    rounding they carry.  Unequal totals give "total_mismatch"; prefix
    margins of both signs give "incomparable"; margins vanishing in both
    directions mean the vectors are permutations of each other ("both").
    Raises NonFiniteValue when a prefix sum, margin or sum |.| is not finite.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    if xv.n != yv.n:
        raise InvalidArgument(f"length mismatch: {xv.n} vs {yv.n}")
    xs, ys = np.sort(xv.array)[::-1], np.sort(yv.array)[::-1]
    slack = _rho(xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a margin that is not finite
        margins = compensated_prefix_sums(ys)[1:] - compensated_prefix_sums(xs)[1:]
    if not np.isfinite(margins).all():
        raise NonFiniteValue("a sum of x or y")
    y_under = bool((margins[:-1] <= slack).all())
    if abs(margins[-1]) > slack:
        relation = TOTAL_MISMATCH
    elif (margins[:-1] >= -slack).all():
        relation = BOTH if y_under else X_MAJORIZED_BY_Y
    else:
        relation = Y_MAJORIZED_BY_X if y_under else INCOMPARABLE
    return MajorizationVerdict(relation, tuple(margins.tolist()))


def _g_values(g: Callable[[float], float], points: np.ndarray, where: str) -> np.ndarray:
    """g at each point, a catalog member's or table's in one ``g.values`` call after
    its ``__call__``'s [0, 1] check; NonFiniteValue if one overflows or is not finite."""
    try:
        if isinstance(g, MonotoneFunction):
            outside = ~((points >= 0.0) & (points <= 1.0))
            if outside.any():
                g(float(points[outside.argmax()]))  # fails __call__'s check: InvalidArgument
            with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
                values = g.values(points)
        else:
            values = np.array([float(g(t)) for t in points.tolist()])
    except OverflowError:
        raise NonFiniteValue(f"g on {where}") from None
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"g on {where}")
    return values


def _abel_allowance(t: np.ndarray, v: np.ndarray, dip: float, mismatch: float) -> "Fraction":
    """KaramataReport's allowance, exact, for g's values v at x and y's entries t."""
    from fractions import Fraction  # imported here, as in require_convex
    lo, hi = int(t.argmin()), int(t.argmax())
    if t[lo] == t[hi]:
        return Fraction(0)
    lo2, hi2 = int(np.where(t > t[lo], t, np.inf).argmin()), int(np.where(t < t[hi], t, -np.inf).argmax())
    (t0, t1, t2, t3), (v0, v1, v2, v3) = ([Fraction(a[i].item()) for i in (lo, lo2, hi2, hi)] for a in (t, v))
    q = Fraction(ROUNDING_SLACK)
    s_lo = (v1 - v0 - q * (abs(v0) + abs(v1))) / (t1 - t0)
    s_hi = (v3 - v2 + q * (abs(v2) + abs(v3))) / (t3 - t2)
    return max(s_hi - s_lo, 0) * Fraction(dip) + max(abs(s_lo), abs(s_hi)) * Fraction(mismatch)


def karamata_check(g: Callable[[float], float], x: VectorLike, y: VectorLike) -> KaramataReport:
    """Check sum g(x_i) <= sum g(y_i) for x majorized by y and convex g.

    A catalog function or table states its convexity (see
    :func:`~monobound.functions.require_convex`), and its domain restricts
    the entries to [0, 1]; any other scalar callable is convex on its
    caller's word.  Raises NotMajorized / NotConvex when the hypotheses
    fail, and NonFiniteValue when a value of g, or the sum of |g| over x
    and y, is not finite.  A catalog member or table is evaluated on each
    vector at once, any other g once per entry; the sums are
    :func:`exact_sum`'s, which are :func:`math.fsum`'s bit for bit.
    """
    xv, yv = as_real_vector(x), as_real_vector(y)
    verdict = is_majorized(xv, yv)
    if verdict.relation not in (X_MAJORIZED_BY_Y, BOTH):
        raise NotMajorized(verdict.relation)
    require_convex(g, "karamata_check")
    xa, ya = xv.array, yv.array
    gx, gy = _g_values(g, xa, "x"), _g_values(g, ya, "y")
    t, v = np.concatenate((xa, ya)), np.concatenate((gx, gy))
    scale = _finite_sum("the sum of |g| over x and y", lambda: exact_sum(np.abs(v)))
    # both sums and the margin are at most scale in magnitude: all finite
    sum_x, sum_y = exact_sum(gx), exact_sum(gy)
    margin = sum_y - sum_x
    rho = _rho(xa, ya)  # see KaramataReport
    *prefix, total = verdict.prefix_margins or (0.0,)
    dip, mismatch = max(0.0, -min(prefix, default=0.0)) + rho, abs(total) + rho
    holds = -_abel_allowance(t, v, dip, mismatch) <= margin + ROUNDING_SLACK * scale
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
        raise InvalidArgument(f"n must be >= 2, got {n}")
    if transfers < 0:
        raise InvalidArgument(f"transfers must be >= 0, got {transfers}")
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
