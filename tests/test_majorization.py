import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monobound.errors import DomainViolation, LengthMismatch, NonFiniteValue, NotConvex, NotMajorized
from monobound.functions import (
    MonotoneFunction,
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    reciprocal,
    tabulated,
    trigonometric,
)
from monobound import majorization
from monobound.majorization import (
    BOTH,
    MajorizationVerdict,
    RealVector,
    as_real_vector,
    generate_majorized_pair,
    is_majorized,
    karamata_check,
)
from monobound.partitions import from_weights, uniform_weights
from oracles import NeumaierSum

vectors = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=32
)


def oracle_is_majorized(x, y):
    """The tuple-and-sorted() implementation, one scalar step at a time.

    Prefix sums come from a NeumaierSum loop; the slack is the relative one,
    1e-12 * max(fsum |x_i|, fsum |y_i|).  Returns (relation, margins).
    """
    def prefixes(values):
        acc, out = NeumaierSum(), []
        for v in values:
            acc.add(v)
            out.append(acc.value)
        return out

    xs = sorted((float(t) for t in x), reverse=True)
    ys = sorted((float(t) for t in y), reverse=True)
    margins = tuple(b - a for a, b in zip(prefixes(xs), prefixes(ys)))
    slack = 1e-12 * max(math.fsum(abs(t) for t in xs), math.fsum(abs(t) for t in ys))
    if abs(margins[-1]) > slack:
        return "total_mismatch", margins
    x_under = all(m >= -slack for m in margins[:-1])
    y_under = all(m <= slack for m in margins[:-1])
    if x_under and y_under:
        return "both", margins
    if x_under:
        return "x_majorized_by_y", margins
    return ("y_majorized_by_x" if y_under else "incomparable"), margins


def bits(values):
    return [float(v).hex() for v in values]


#: Few distinct values, signed zeros among them, so sorting meets many ties.
tied_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300, -1e-300])
wide_values = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def vector_pairs(draw, values):
    n = draw(st.integers(1, 40))
    x = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):  # a permutation of x, zeros' signs flipped
        y = [(-t if t == 0.0 else t) for t in draw(st.permutations(x))]
    else:
        y = draw(st.lists(values, min_size=n, max_size=n))
    return x, y


class TestIsMajorized:
    def test_identical_vectors_are_both(self):
        assert is_majorized([0.3, 0.7], [0.3, 0.7]).relation == "both"

    def test_uniform_majorized_by_extreme_point(self):
        v = is_majorized([0.5, 0.5], [1.0, 0.0])
        assert v.relation == "x_majorized_by_y"
        assert v.prefix_margins == pytest.approx([0.5, 0.0], abs=1e-15)

    def test_hand_checked_triple(self):
        v = is_majorized([0.5, 0.4, 0.1], [0.6, 0.3, 0.1])
        assert v.relation == "x_majorized_by_y"
        # prefixes: 0.5 <= 0.6, 0.9 <= 0.9, totals equal
        assert v.prefix_margins[0] == pytest.approx(0.1, abs=1e-15)
        assert v.prefix_margins[1] == pytest.approx(0.0, abs=1e-15)

    def test_swapped_arguments_flip_the_relation(self):
        assert is_majorized([1.0, 0.0], [0.5, 0.5]).relation == "y_majorized_by_x"

    def test_permutations_compare_as_both(self):
        assert is_majorized([0.1, 0.9], [0.9, 0.1]).relation == "both"

    def test_incomparable_pair(self):
        v = is_majorized([0.6, 0.2, 0.2], [0.5, 0.45, 0.05])
        assert v.relation == "incomparable"

    def test_total_mismatch(self):
        assert is_majorized([1.0, 1.0], [1.0, 0.0]).relation == "total_mismatch"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_majorized([1.0], [0.5, 0.5])

    def test_sorting_is_internal(self):
        # entry order must not matter
        assert is_majorized([0.5, 0.5], [0.0, 1.0]).relation == "x_majorized_by_y"

    def test_verdict_wire_format(self):
        d = is_majorized([0.5, 0.5], [1.0, 0.0]).to_dict()
        assert list(d.keys()) == ["relation", "prefix_margins"]
        assert isinstance(d["prefix_margins"], list)

    @given(vectors)
    def test_reflexivity(self, xs):
        assert is_majorized(xs, xs).relation == "both"

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_covariance(self, c):
        x, y = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1]
        base = is_majorized(x, y).relation
        scaled = is_majorized([c * t for t in x], [c * t for t in y]).relation
        assert scaled == base


class TestArrayPathMatchesOracle:
    @staticmethod
    def check(x, y):
        got = is_majorized(x, y)
        relation, margins = oracle_is_majorized(x, y)
        assert got.relation == relation
        assert bits(got.prefix_margins) == bits(margins)

    @given(vector_pairs(tied_values))
    def test_ties_and_signed_zeros(self, pair):
        self.check(*pair)

    @given(vector_pairs(wide_values))
    def test_wide_magnitudes(self, pair):
        self.check(*pair)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 400), st.integers(0, 2**32 - 1))
    def test_generated_pairs(self, n, transfers, seed):
        x, y = generate_majorized_pair(n, transfers, seed)
        self.check(x.entries, y.entries)


class TestScaleAwareSlack:
    def test_tiny_vectors_are_not_called_permutations(self):
        # an absolute 1e-12 slack swallowed the whole 5e-13 margin
        v = is_majorized([5e-13, 5e-13], [1e-12, 0.0])
        assert v.relation == "x_majorized_by_y"
        assert v.prefix_margins == (5e-13, 0.0)

    def test_rounding_at_large_totals_is_not_a_mismatch(self):
        x = [71839804972.64835, 69444894272.95683, 75387066709.9101]
        y = [94894367493.77654, 46004513930.90961, 75772884530.82915]
        v = is_majorized(x, y)
        assert v.prefix_margins[-1] == 3.0517578125e-05  # rounding at 2.2e11
        assert v.relation == "x_majorized_by_y"

    @pytest.mark.parametrize("k", [-900, -600, -40, 40, 600, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        x, y = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1]
        base = is_majorized(x, y)
        c = 2.0**k
        scaled = is_majorized([c * t for t in x], [c * t for t in y])
        assert scaled.relation == base.relation
        assert scaled.prefix_margins == tuple(c * m for m in base.prefix_margins)

    def test_zero_vectors_compare_as_both(self):
        assert is_majorized([0.0, -0.0], [-0.0, 0.0]).relation == "both"


class TestOverflow:
    @pytest.mark.parametrize(
        "x, y",
        [
            ([1e308, 1e308], [1e308, 1e308]),  # prefix sums overflow
            ([-1e308], [1e308]),  # a margin overflows
            ([1e308, -1e308], [1e308, -1e308]),  # the sum of magnitudes overflows
        ],
    )
    def test_refused_with_a_typed_error(self, x, y):
        with pytest.raises(NonFiniteValue):
            is_majorized(x, y)

    def test_karamata_refuses_too(self):
        with pytest.raises(NonFiniteValue):
            karamata_check(lambda t: t * t, [1e308, 1e308], [1e308, 1e308])

    def test_largest_finite_sums_still_compare(self):
        v = is_majorized([8e307, 8e307], [1.6e308, 0.0])
        assert v.relation == "x_majorized_by_y"


class TestRealVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RealVector(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RealVector((1.0, math.inf))

    def test_negative_entries_allowed(self):
        assert RealVector((-1.0, 2.0)).n == 2

    def test_as_real_vector_accepts_weight_vectors(self):
        v = as_real_vector(from_weights([0.2, 0.3, 0.5]))
        assert v.entries == (0.2, 0.3, 0.5)

    def test_weight_vector_array_is_shared(self):
        w = from_weights([0.2, 0.3, 0.5])
        assert as_real_vector(w).array is w.array

    def test_one_read_only_float64_array(self):
        source = np.array([3.0, -1.0, 2.0])
        v = RealVector(source)
        source[0] = 99.0
        assert v.array.dtype == np.float64 and not v.array.flags.writeable
        assert v.entries == (3.0, -1.0, 2.0)
        assert all(type(t) is float for t in v.entries)
        with pytest.raises(ValueError):
            v.array[0] = 1.0

    def test_equality_and_hash_follow_the_values(self):
        a, b = RealVector([0.0, 1.0]), RealVector((-0.0, 1.0))
        assert a == b and hash(a) == hash(b)
        assert a != RealVector([1.0, 0.0])

    def test_as_real_vector_flattens_and_converts(self):
        assert as_real_vector([[1, 2], [3, 4]]).entries == (1.0, 2.0, 3.0, 4.0)
        assert as_real_vector(np.arange(3)).entries == (0.0, 1.0, 2.0)

    def test_rejects_nested_input(self):
        with pytest.raises(TypeError):
            RealVector([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_real_vector([1.0, math.nan])


class TestKaramata:
    def test_square_on_extreme_pair(self):
        rep = karamata_check(lambda t: t * t, [0.5, 0.5], [1.0, 0.0])
        assert rep.margin == pytest.approx(0.5, abs=1e-15)
        assert rep.holds
        assert rep.sum_x == pytest.approx(0.5, abs=1e-15)
        assert rep.sum_y == pytest.approx(1.0, abs=1e-15)

    def test_equal_vectors_give_zero_margin(self):
        rep = karamata_check(math.exp, [0.2, 0.8], [0.8, 0.2])
        assert rep.margin == pytest.approx(0.0, abs=1e-15)

    def test_hand_checked_triple(self):
        rep = karamata_check(lambda t: t * t, [0.5, 0.4, 0.1], [0.6, 0.3, 0.1])
        # 0.36 + 0.09 + 0.01 = 0.46 versus 0.25 + 0.16 + 0.01 = 0.42
        assert rep.margin == pytest.approx(0.04, abs=1e-12)
        assert rep.holds

    def test_not_majorized_rejected(self):
        with pytest.raises(NotMajorized):
            karamata_check(lambda t: t * t, [1.0, 0.0], [0.5, 0.5])

    def test_concave_function_rejected_with_witness(self):
        with pytest.raises(NotConvex) as info:
            karamata_check(trigonometric(), [0.5, 0.5], [1.0, 0.0])
        assert info.value.witness == (0.0, 0.5, 1.0)
        cap = tabulated([(0.0, 0.0), (0.25, 1.0), (0.5, 1.5), (1.0, 0.0)])  # slopes 4, 2, -3
        with pytest.raises(NotConvex, match="lies above its chord") as info:
            karamata_check(cap, [0.5, 0.5], [1.0, 0.0])
        assert info.value.witness == (0.0, 0.25, 0.5)

    def test_square_near_1e8_passes_the_convexity_guard(self):
        # t^2 near 1e16 rounds in steps of 2, far coarser than the margin 0.125
        rep = karamata_check(lambda t: t * t, [1e8 + 0.25, 1e8 + 0.25], [1e8 + 0.5, 1e8])
        assert rep.holds

    def test_concave_function_rejected_at_large_scale(self):
        # the second slope is one ulp of 2e300 below the first: no sample of
        # g in float64 could tell, the exact knot slopes do
        top = float(np.nextafter(2e300, 0.0))
        with pytest.raises(NotConvex) as info:
            karamata_check(tabulated([(0.0, 0.0), (0.5, 1e300), (1.0, top)]), [0.5, 0.5], [1.0, 0.0])
        assert info.value.witness == (0.0, 0.5, 1.0)
        with pytest.raises(NotConvex):  # a concave member on a hull 1e-4 wide
            karamata_check(power_complement(2), [0.5, 0.5], [0.50005, 0.49995])

    def test_g_is_called_once_per_entry(self):
        calls = []
        x, y = generate_majorized_pair(n=50, transfers=80, seed=4)
        karamata_check(lambda t: calls.append(t) or t * t, x, y)
        assert sorted(calls) == sorted(x.entries + y.entries)

    def test_catalog_member_is_evaluated_once_per_vector(self):
        # one g.values call on x and one on y, with the values g's __call__
        # gives (exp agrees at every point), and __call__'s domain error
        g = exponential(1.0)
        x, y = generate_majorized_pair(n=50, transfers=80, seed=4)
        xs, ys = x.array / 100.0, y.array / 100.0
        with mock.patch.object(MonotoneFunction, "values", autospec=True, side_effect=MonotoneFunction.values) as spy:
            rep = karamata_check(g, xs, ys)
        assert spy.call_count == 2
        assert rep == karamata_check(lambda t: g(t), xs, ys)
        for bad, first in (([0.5, 1.5, -0.5], 1.5), ([0.5, -0.5, 1.5], -0.5)):
            with pytest.raises(DomainViolation) as info:
                karamata_check(g, bad, bad[::-1])
            assert info.value.x == first

    def test_convex_table_need_not_be_monotone(self):
        v = tabulated([(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)])
        rep = karamata_check(v, [0.5, 0.5], [1.0, 0.0])
        assert (rep.margin, rep.holds) == (2.0, True)

    def test_catalog_function_must_be_convex(self):
        # 1 - t^2 is concave on [0, 1]
        with pytest.raises(NotConvex):
            karamata_check(power_complement(2), [0.5, 0.5], [1.0, 0.0])

    def test_rounding_of_large_sums_is_not_a_violation(self):
        # sum t^2 is near 5e18, whose ulp is 1024: the margin of this valid
        # pair rounds to -1024, within a few ulps of sum |g|
        x, y = generate_majorized_pair(5, 1, 1)
        rep = karamata_check(lambda t: t * t, x.array + 1e9, y.array + 1e9)
        assert rep.margin == -1024.0
        assert rep.holds

    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e9, 1e12])
    def test_shifted_generated_pairs_hold(self, shift):
        for seed in range(100):
            x, y = generate_majorized_pair(5, 1, seed)
            xs, ys = x.array + shift, y.array + shift
            if is_majorized(xs, ys).relation in ("x_majorized_by_y", "both"):
                assert karamata_check(lambda t: t * t, xs, ys).holds

    def test_a_clear_violation_still_fails_at_large_scale(self):
        # with the pair reversed past the majorization check, the margin is
        # -2e6: far beyond the rounding of sums near 4e18
        x, y = [1e9 + 1000.0, 1e9 - 1000.0], [1e9, 1e9]
        with mock.patch.object(majorization, "is_majorized", return_value=MajorizationVerdict(BOTH, ())):
            rep = karamata_check(lambda t: t * t, x, y)
        assert rep.margin == pytest.approx(-2e6, rel=1e-3)
        assert not rep.holds

    def test_a_nonnegative_margin_always_holds(self):
        # g is convex only on its caller's word: its end chords fall from 0.75
        # to -1, and the prefix margins dip by 1.5e-12 within the slack
        d = 1.5e-12
        rep = karamata_check(lambda t: -((t - 0.5) ** 2), [1.0 + d, 0.75 - d, 0.25, 0.0], [1.0, 0.75, 0.25, 0.0])
        assert rep.margin > 0.0 and rep.holds

    def test_a_violation_fails_where_chord_slopes_overflow(self):
        # the chord slopes of g pass the largest float, and the pair is
        # reversed past the majorization check: the margin is -5e307
        def g(t):
            return 1.7e308 * (2.0 * t - 1.0) + 1e308 * (2.0 * t - 1.0) ** 2

        with mock.patch.object(majorization, "is_majorized", return_value=MajorizationVerdict(BOTH, ())):
            rep = karamata_check(g, [0.75, 0.25], [0.5, 0.5])
        assert (rep.margin, rep.holds) == (-5e307, False)

    @pytest.mark.parametrize(
        "g, x, y, where",
        [
            (math.exp, [1000.0, 1000.0], [1000.0, 1000.0], "g on x"),  # OverflowError
            (lambda t: t * t, [1e200, 1e200], [1e200, 1e200], "g on x"),  # inf
            (lambda t: math.nan, [1.0], [1.0], "g on x"),
            (math.exp, [500.0, 500.0], [1000.0, 0.0], "g on y"),
            (lambda t: 8e307 * (1.0 + t), [0.5, 0.5], [1.0, 0.0], "the sum of |g| over x and y"),
            (lambda t: 1.5e308, [0.5], [0.5], "the sum of |g| over x and y"),
        ],
    )
    def test_non_finite_values_and_sums_are_refused(self, g, x, y, where):
        with pytest.raises(NonFiniteValue) as info:
            karamata_check(g, x, y)
        assert info.value.what == where

    def test_convexity_guard_does_not_overflow(self):
        # sum |g| passes the largest float on the first pair, not on the second
        with pytest.raises(NonFiniteValue):
            karamata_check(lambda t: t * t, [1e154, 1e154], [1.2e154, 0.8e154])
        rep = karamata_check(lambda t: t * t, [6e153, 6e153], [7e153, 5e153])
        assert rep.holds and rep.margin > 0

    @pytest.mark.parametrize(
        "g", [lambda t: t * t, math.exp, lambda t: abs(t - 0.5)], ids=["square", "exp", "abs"]
    )
    def test_margin_nonnegative_on_generated_pairs(self, g):
        for seed in range(40):
            x, y = generate_majorized_pair(n=12, transfers=30, seed=seed)
            assert karamata_check(g, x, y).margin >= -1e-12


@st.composite
def placed_pairs(draw, lo_range):
    """A generated majorized pair scaled to a hull 1e-9 to 1 wide, whose low
    end is drawn by ``lo_range(width)`` as (min, max)."""
    n = draw(st.integers(2, 200))
    x, y = generate_majorized_pair(n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 2**32 - 1)))
    width = 10.0 ** draw(st.floats(-9.0, 0.0))
    lo = draw(st.floats(*lo_range(width)))
    return lo + width * x.array, lo + width * y.array, width


def on_unit_hull(width):
    return 0.0, 1.0 - width


@st.composite
def concave_knots(draw):
    """Knots of a table whose slopes fall somewhere: one inner knot is lifted
    above both of its neighbours, so above their chord."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, draw(st.integers(1, 38))))))
    ys = rng.uniform(-2.0, 2.0, xs.size)
    j = draw(st.integers(1, xs.size - 2))
    ys[j] = max(ys[j - 1], ys[j + 1]) + draw(st.floats(1e-6, 1.0))
    return list(zip(xs.tolist(), ys.tolist()))


class TestConvexityProbe:
    """Convexity is a stated fact: a concave member or table is refused
    whatever the hull, and a convex g is neither refused nor reported."""

    @settings(max_examples=60, deadline=None)
    @given(placed_pairs(on_unit_hull))
    def test_concave_g_never_violates(self, case):
        x, y, _ = case
        for g in (trigonometric(), logarithmic(), power_complement(2), power_complement(3)):
            with pytest.raises(NotConvex):
                karamata_check(g, x, y)

    @settings(max_examples=60, deadline=None)
    @given(placed_pairs(on_unit_hull), concave_knots())
    def test_concave_table_is_refused(self, case, knots):
        x, y, _ = case
        with pytest.raises(NotConvex):
            karamata_check(tabulated(knots), x, y)

    @settings(max_examples=60, deadline=None)
    @given(placed_pairs(on_unit_hull))
    def test_convex_catalog_g_is_accepted(self, case):
        x, y, _ = case
        for g in (exponential(1), reciprocal(), power_complement(0.5), linear(-1.0, 1.0), constant(2.0)):
            assert karamata_check(g, x, y).holds

    @settings(max_examples=60, deadline=None)
    @given(placed_pairs(lambda width: (-1e6, 1e6)), st.floats(0.0, 1.0))
    def test_convex_g_is_accepted_far_from_zero(self, case, at):
        x, y, width = case
        c = float(x.min()) + at * width
        for g in (lambda t: t * t, lambda t: abs(t - c)):
            assert karamata_check(g, x, y).holds

    @settings(max_examples=60, deadline=None)
    @given(placed_pairs(lambda width: (-700.0, 700.0)))
    def test_exp_is_accepted_up_to_large_values(self, case):
        x, y, _ = case
        assert karamata_check(math.exp, x, y).holds


@st.composite
def pushed_pairs(draw, lo_range, widest):
    """A generated majorized pair on a hull up to ``widest`` wide, whose low
    end is drawn by ``lo_range(width)``, pushed past majorization by less
    than the slack of is_majorized: x's largest entry gains d, and its
    smallest loses d or, so that the totals differ, keeps it."""
    n = draw(st.integers(2, 50))
    x, y = generate_majorized_pair(n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 2**32 - 1)))
    width = 10.0 ** draw(st.floats(-9.0, math.log10(widest)))
    lo = draw(st.floats(*lo_range(width)))
    x, y = lo + width * x.array, lo + width * y.array
    d = draw(st.floats(0.0, 0.45)) * 1e-12 * max(np.abs(x).sum(), np.abs(y).sum())
    x[x.argmax()] += d
    if draw(st.booleans()):
        x[x.argmin()] -= d
    return x, y


@st.composite
def end_cluster_pairs(draw):
    """A decreasing y near c, and x moving d, within the slack of
    is_majorized, from one of y's entries to its first, and k ulps of y's
    last entry from its second to its last: x and y's two lowest entries are
    k ulps apart, where rounding makes up much of g's chord slope."""
    n, c = draw(st.integers(3, 8)), draw(st.floats(1.0, 1e6))
    spread = draw(st.floats(1e-9, 0.5)) * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    y = np.sort(c * (1.0 + spread))[::-1]
    d = draw(st.floats(0.0, 0.45)) * 1e-12 * y.sum()
    e = draw(st.integers(1, 4)) * float(np.spacing(y[-1]))
    x = y.copy()
    x[0] += d
    x[draw(st.integers(1, n - 1))] -= d
    x[1] -= e
    x[-1] += e
    return x, y


class TestSlackDips:
    """is_majorized calls a pair majorized whose prefix margins dip below
    zero, or whose totals differ, within its slack.  Karamata's Abel
    summation bounds what that costs a convex g, so a convex g never fails."""

    @staticmethod
    def check(g, x, y):
        if is_majorized(x, y).relation in ("x_majorized_by_y", "both"):
            assert karamata_check(g, x, y).holds

    @settings(max_examples=150, deadline=None)
    @given(pushed_pairs(lambda width: (-1e6, 1e6), 1e6), st.floats(0.0, 1.0))
    def test_square_and_abs(self, case, at):
        x, y = case
        c = float(x.min()) + at * float(x.max() - x.min())
        for g in (lambda t: t * t, lambda t: abs(t - c)):
            self.check(g, x, y)

    @settings(max_examples=100, deadline=None)
    @given(pushed_pairs(lambda width: (-700.0, 700.0 - width), 1e3))
    def test_exp(self, case):
        self.check(math.exp, *case)

    @settings(max_examples=100, deadline=None)
    @given(pushed_pairs(lambda width: (0.05, 0.95 - width), 0.5))
    def test_convex_members_and_tables(self, case):
        v = tabulated([(0.0, 1.0), (0.3, -0.5), (0.7, -0.5), (1.0, 2.0)])
        for g in (exponential(3.0), reciprocal(), power_complement(0.5), linear(-2.0, 1.0), v):
            self.check(g, *case)

    @settings(max_examples=150, deadline=None)
    @given(end_cluster_pairs())
    def test_end_chords_a_few_ulps_wide(self, case):
        for g in (lambda t: t * t, lambda t: 0.1 * t, lambda t: math.exp(t / 1e5)):
            self.check(g, *case)

    @pytest.mark.parametrize(
        "g, x, y",
        [
            (lambda t: t * t, [1000000.0000005, -5e-7], [1000000.0, 0.0]),
            (math.exp, [700.0000000005, -5e-10], [700.0, 0.0]),
            (lambda t: -t, [1e6, 0.0], [1e6, 5e-7]),  # the totals differ by 5e-7
            # the totals differ by 2^-36, half an ulp of each, so both round alike
            (lambda t: 65537.5 - t, [65536.5, 65536.25], [65536.5, 65536.25 + 2**-36]),
            # the two lowest entries are 2 ulps apart: g's chord there rounds to
            # 0.125, above the 0.1 of the highest chord
            (lambda t: 0.1 * t, [3e6 + 2**-20, 1e6 - 2**-20 - 2**-33, 5e5 + 2**-33], [3e6, 1e6, 5e5]),
            # 2 ulps apart again: the chord of t^2 rounds to 2^21, above the highest 2000128
            (
                lambda t: t * t,
                [1000001.0000004768, 1000000.9335250279, 1000000.0000000002],
                [1000001.0, 1000000.933525505, 1000000.0],
            ),
            # the lowest chord, 2 ulps wide, rounds to 2^18 for a true 248554, not
            # past the highest 268504, but cuts the gap between them to a third
            (
                lambda t: t * t,
                [134251.89682811164, 127777.33671674444, 125866.9435165745, 124510.91196908911, 124276.91449377697],
                [134251.8968278505, 127777.33671674444, 125866.94351683569, 124510.91196908911, 124276.91449377695],
            ),
        ],
        ids=["square", "exp", "totals", "rounded-totals", "linear-end-chord", "square-end-chord", "square-low-chord"],
    )
    def test_reproducers(self, g, x, y):
        assert is_majorized(x, y).relation == "both"
        rep = karamata_check(g, x, y)
        assert rep.margin < 0.0 and rep.holds


def reference_rounds(n, transfers, seed):
    """The round-based generator spelled out: each round orders its disjoint
    pairs by value and moves a random share of half the gap downhill."""
    rng = np.random.default_rng(seed)
    y = rng.random(n)
    x = y.copy()
    while transfers > 0:
        m = min(n // 2, transfers)
        i, j = rng.permutation(n)[: 2 * m].reshape(2, m)
        up = x[i] < x[j]
        hi, lo = np.where(up, j, i), np.where(up, i, j)
        delta = rng.random(m) * 0.5 * (x[hi] - x[lo])
        x[hi] -= delta
        x[lo] += delta
        transfers -= m
    return x, y


@st.composite
def generator_cases(draw):
    n = draw(st.integers(2, 300))
    return n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 2**32 - 1))


class TestGenerator:
    def test_zero_transfers_give_identical_vectors(self):
        x, y = generate_majorized_pair(n=5, transfers=0, seed=3)
        assert x.entries == y.entries
        assert is_majorized(x, y).relation == "both"

    def test_deterministic_for_fixed_seed(self):
        a = generate_majorized_pair(n=8, transfers=20, seed=11)
        b = generate_majorized_pair(n=8, transfers=20, seed=11)
        assert a[0].entries == b[0].entries and a[1].entries == b[1].entries

    def test_generated_pairs_are_majorized(self):
        rng = np.random.default_rng(17)
        for seed in range(200):
            n = int(rng.integers(2, 65))
            transfers = int(rng.integers(0, 201))
            x, y = generate_majorized_pair(n, transfers, seed=seed)
            assert is_majorized(x, y).relation in ("x_majorized_by_y", "both")

    def test_transfers_strictly_flatten(self):
        x, y = generate_majorized_pair(n=6, transfers=25, seed=2)
        assert is_majorized(x, y).relation == "x_majorized_by_y"

    def test_transitivity_through_chained_transfers(self):
        x, y = generate_majorized_pair(n=10, transfers=15, seed=5)
        # apply further equalizing transfers to x by hand
        rng = np.random.default_rng(6)
        z = np.array(x.entries)
        for _ in range(15):
            i, j = rng.choice(10, size=2, replace=False)
            if z[i] < z[j]:
                i, j = j, i
            delta = rng.random() * 0.5 * (z[i] - z[j])
            z[i] -= delta
            z[j] += delta
        assert is_majorized(z, x).relation in ("x_majorized_by_y", "both")
        assert is_majorized(z, y).relation in ("x_majorized_by_y", "both")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_majorized_pair(1, 5, seed=0)
        with pytest.raises(ValueError):
            generate_majorized_pair(4, -1, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(generator_cases())
    @example((2, 0, 0))
    @example((2, 7, 1))
    @example((7, 2, 3))  # odd n, transfers below n // 2
    @example((299, 148, 4))
    @example((300, 900, 5))
    def test_rounds_keep_the_pair_majorized(self, case):
        n, transfers, seed = case
        x, y = generate_majorized_pair(n, transfers, seed)
        assert x.n == y.n == n
        assert is_majorized(x, y).relation in ("x_majorized_by_y", "both")
        assert y.array.min() <= x.array.min() and x.array.max() <= y.array.max()
        # each move touches two entries, so a few moves leave the rest alone
        assert np.count_nonzero(x.array != y.array) <= 2 * transfers
        if transfers == 0:
            assert np.array_equal(x.array, y.array)

    @settings(max_examples=60, deadline=None)
    @given(generator_cases())
    @example((10**4, 15000, 3))
    def test_matches_the_round_by_round_reference(self, case):
        x, y = generate_majorized_pair(*case)
        rx, ry = reference_rounds(*case)
        assert x.array.tobytes() == rx.tobytes() and y.array.tobytes() == ry.tobytes()


class TestBridge:
    """Weight vectors compare by majorization directly: both sum to 1."""

    def test_uniform_is_majorized_by_everything(self):
        w = from_weights([0.2, 0.3, 0.5])
        v = is_majorized(uniform_weights(3), w)
        assert v.relation == "x_majorized_by_y"

    def test_self_comparison(self):
        w = from_weights([0.2, 0.3, 0.5])
        assert is_majorized(w, w).relation == "both"

    def test_hand_checked_weight_pair(self):
        w1 = from_weights([0.2, 0.3, 0.5])
        w2 = from_weights([0.25, 0.25, 0.5])
        # sorted prefixes: (0.5, 0.8) vs (0.5, 0.75), so w2 is majorized by w1
        assert is_majorized(w1, w2).relation == "y_majorized_by_x"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_majorized(uniform_weights(2), uniform_weights(3))

    def test_totals_match_automatically(self):
        v = is_majorized(uniform_weights(4), from_weights([0.1, 0.2, 0.3, 0.4]))
        assert v.relation != "total_mismatch"
        assert v.prefix_margins[-1] == pytest.approx(0.0, abs=1e-12)
