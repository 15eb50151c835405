import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from monobound import _summation
from monobound.bounds import (
    BoundReport,
    _abel_route,
    abel_sum,
    abel_terms,
    abel_violations,
    bound_report,
    gap_bound,
    refinement_chain,
    refinement_violations,
    riemann_sum_left,
    riemann_sum_right,
)
from monobound.errors import NonFiniteValue, NonMonotoneFunction
from monobound.functions import (
    DECREASING,
    INCREASING,
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    reciprocal,
    tabulated,
    trigonometric,
)
from monobound.partitions import (
    CumulativePartition,
    bisect_all,
    cumulative,
    from_weights,
    uniform_weights,
)

WORKED_WEIGHTS = [0.2, 0.3, 0.5]
CATALOG = [
    power_complement(2),
    exponential(1),
    logarithmic(),
    reciprocal(),
    trigonometric(),
]

weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=64
)


def worked_partition():
    return cumulative(from_weights(WORKED_WEIGHTS))


class TestRiemannSums:
    def test_worked_example_right_sum(self):
        t = riemann_sum_right(power_complement(2), worked_partition())
        assert t == pytest.approx(0.417, abs=1e-12)

    def test_single_interval_right_sum_is_g_at_1(self):
        g = exponential(1)
        assert riemann_sum_right(g, cumulative(from_weights([1.0]))) == g(1.0)

    def test_linear_half_weights(self):
        p = cumulative(from_weights([0.5, 0.5]))
        assert riemann_sum_right(linear(-1, 1), p) == 0.25
        assert riemann_sum_left(linear(-1, 1), p) == 0.75

    def test_single_interval_left_sum_is_g_at_0(self):
        g = trigonometric()
        assert riemann_sum_left(g, cumulative(from_weights([1.0]))) == g(0.0)

    def test_worked_example_left_sum(self):
        t = riemann_sum_left(power_complement(2), worked_partition())
        assert t == pytest.approx(0.863, abs=1e-12)


class TestAbel:
    def test_worked_example_terms_and_sum(self):
        g = power_complement(2)
        p = worked_partition()
        terms = abel_terms(g, p)
        assert terms == pytest.approx([0.042, 0.375], abs=1e-15)
        assert abel_sum(g, p) == pytest.approx(0.417, abs=1e-12)

    def test_constant_collapses_to_c(self):
        assert abel_sum(constant(2.5), worked_partition()) == 2.5

    def test_single_interval_has_empty_tail(self):
        g = logarithmic()
        p = cumulative(from_weights([1.0]))
        assert abel_terms(g, p) == []
        assert abel_sum(g, p) == g(1.0)

    def test_adversarial_weights_agree(self):
        p = cumulative(from_weights([1.0 - 1e-8, 1e-8]))
        for g in CATALOG:
            t = riemann_sum_right(g, p)
            assert abs(abel_sum(g, p) - t) <= 1e-12 * max(1.0, abs(t))

    @given(weight_lists)
    def test_abel_equals_direct_sum(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        g = reciprocal()
        t = riemann_sum_right(g, p)
        assert abs(abel_sum(g, p) - t) <= 1e-12 * max(1.0, abs(t))

    @given(weight_lists)
    def test_abel_terms_nonnegative_for_decreasing(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        terms = abel_terms(trigonometric(), p)
        assert all(t >= -1e-14 for t in terms)


class TestBoundReport:
    def test_worked_example_report(self):
        r = bound_report(power_complement(2), worked_partition())
        assert r.t_n == pytest.approx(0.417, abs=1e-12)
        assert r.integral == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.integral_source == "closed_form"
        assert r.gap == pytest.approx(2.0 / 3.0 - 0.417, abs=1e-12)
        assert r.strict is True
        assert r.n == 3
        assert r.evaluation_count > 0
        assert r.invariant_violations() == []

    @pytest.mark.parametrize("n", [1, 3, 10, 1000])
    def test_g_evaluated_once_per_breakpoint(self, n):
        # S_0..S_n once: S_1..S_n for the direct and Abel routes, the ends
        # S_0 = 0 and S_n = 1 for the gap bound and the scale
        r = bound_report(reciprocal(), cumulative(uniform_weights(n)))
        assert r.evaluation_count == n + 1

    def test_tabulated_evaluations_are_counted(self):
        # the trapezoid integral was formed at construction, so a table is
        # evaluated at the breakpoints only, in one call, like any catalog member
        g = tabulated([(0.0, 2.0), (0.3, 1.0), (0.8, 0.9), (1.0, 0.1)])
        calls = []
        counted = dataclasses.replace(g, _fn=lambda x: calls.append(np.size(x)) or g._fn(x))
        p = cumulative(uniform_weights(7))
        assert bound_report(counted, p).evaluation_count == sum(calls) == p.n + 1
        assert calls == [p.n + 1]

    @pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.kind)
    @pytest.mark.parametrize("n", [1, 3, 511, 4099])
    @pytest.mark.parametrize("shape", ["uniform", "lognormal", "geometric"])
    def test_ends_match_a_separate_evaluation(self, g, n, shape):
        # g(0) and g(1) come from the one evaluation at S_0..S_n; they carry
        # the bits of g evaluated at 0 and 1 alone
        raw = {
            "uniform": np.ones(n),
            "lognormal": np.random.default_rng(n).lognormal(0.0, 2.0, n),
            "geometric": 0.999 ** np.arange(n),
        }[shape]
        p = cumulative(from_weights(raw, normalize=True))
        g0, g1 = g.values([0.0, 1.0]).tolist()
        r = bound_report(g, p)
        assert r.gap_bound == (g0 - g1) * float(np.diff(p.array).max())
        assert r.scale == max(abs(g0), abs(g1))
        assert gap_bound(g, p) == r.gap_bound

    def test_constant_equality_case(self):
        r = bound_report(constant(3.0), worked_partition())
        assert abs(r.gap) <= 1e-14
        assert r.strict is False
        assert r.invariant_violations() == []

    def test_linear_uniform_gap_is_m_over_2n(self):
        r = bound_report(linear(-1, 1), cumulative(uniform_weights(4)))
        assert r.gap == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_tabulated_integral_is_the_closed_form(self):
        g = tabulated([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        r = bound_report(g, worked_partition())
        assert r.integral_source == "closed_form"
        assert r.integral == g.closed_form_integral == 0.5
        assert r.invariant_violations() == []

    def test_non_monotone_rejected_with_witness(self):
        g = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        with pytest.raises(NonMonotoneFunction) as info:
            bound_report(g, worked_partition())
        assert info.value.witness == (0.5, 1.0)  # the knots where the direction flips

    def test_increasing_function_flips_the_bound(self):
        r = bound_report(linear(1, 0), cumulative(uniform_weights(4)))
        assert r.direction == INCREASING
        assert r.t_n >= r.integral  # right sum over-estimates an increasing g
        assert r.gap <= 0.0
        assert r.invariant_violations() == []

    def test_to_dict_has_exactly_the_wire_fields(self):
        r = bound_report(power_complement(2), worked_partition())
        assert list(r.to_dict().keys()) == [
            "t_n",
            "integral",
            "integral_source",
            "gap",
            "gap_bound",
            "strict",
            "abel_value",
            "n",
        ]

    @given(weight_lists)
    def test_reports_clean_on_random_weights(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        r = bound_report(exponential(1), p)
        assert r.invariant_violations() == []
        assert r.gap >= -1e-12

    def test_keeps_its_tolerance_and_scale(self):
        assert bound_report(linear(2, -3), worked_partition()).scale == 3.0

    @pytest.mark.parametrize("g", CATALOG + [linear(1, 0), constant(2.0)], ids=lambda g: g.formula)
    def test_left_sum_completes_the_enclosure(self, g):
        p = cumulative(from_weights([0.05, 0.15, 0.1, 0.3, 0.4]))
        r = bound_report(g, p)
        left = riemann_sum_left(g, p)
        lower, upper, contains = r.enclosure(left)
        assert contains and lower <= r.integral <= upper
        assert {lower, upper} == {r.t_n, left}
        assert r.invariant_violations(left) == []

    def test_a_left_sum_below_the_integral_escapes(self):
        r = bound_report(power_complement(2), worked_partition())
        assert r.enclosure(r.t_n)[2] is False
        assert r.invariant_violations(r.t_n) == [
            f"integral {r.integral!r} escapes the enclosure [{r.t_n!r}, {r.t_n!r}]"
        ]

    def test_gap_checks_scale_with_g(self):
        # the gap is an ulp of g(1) = 1e12, a thousand times the gap bound
        g, p = linear(-1e-4, 1e12), cumulative(uniform_weights(1000))
        r = bound_report(g, p)
        assert r.scale == 1e12
        assert r.gap > r.gap_bound
        assert r.invariant_violations(riemann_sum_left(g, p)) == []


class TestRouteChecks:
    def test_abel_agreement_is_relative_to_t_n(self):
        # relative to g's scale, which is at least |t_n|
        assert abel_violations(DECREASING, 1e6, 1e6 + 1e-7, [0.0], 1e6) == []
        assert abel_violations(DECREASING, 1.0, 1.0 + 1e-11, [0.0], 1.0) == [
            f"Abel route {1.0 + 1e-11!r} disagrees with direct sum 1.0"
        ]

    def test_abel_slack_scales_with_g_not_with_t_n(self):
        # t_n cancels to ~1e-12 while g reaches 1e6: both routes round at ulp(1e6)
        t_n, value = 3.581135388230905e-12, 1.1013412404281553e-12
        assert abel_violations(DECREASING, t_n, value, [-1e-7], 1e6) == []
        assert abel_violations(DECREASING, t_n, value, [-1e-7], 1.0) == [
            f"Abel route {value!r} disagrees with direct sum {t_n!r}",
            "negative Abel term -1e-07 for a decreasing function",
        ]

    def test_negative_terms_are_allowed_only_for_increasing_g(self):
        assert abel_violations(INCREASING, 0.5, 0.5, [-0.25], 1.0) == []
        assert abel_violations(DECREASING, 0.5, 0.5, [-0.25], 1.0) == [
            "negative Abel term -0.25 for a decreasing function"
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-3.0, 12.0),
        st.integers(1, 2999),
        st.integers(0, 2**32 - 1),
        st.floats(-15.0, -6.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_t_n_cancelling_to_near_zero_is_no_violation(self, log_scale, n, seed, log_shift, sign):
        # g(x) = b - M x with b set so that T_n = b - M * sum a_i S_i nearly cancels
        w = np.random.default_rng(seed).lognormal(0.0, 1.0, n)
        p = cumulative(from_weights(w / w.sum()))
        m = 10.0**log_scale
        b = m * math.fsum(np.diff(p.array) * p.array[1:]) * (1.0 + sign * 10.0**log_shift)
        g = linear(-m, b)
        assert bound_report(g, p).invariant_violations(riemann_sum_left(g, p)) == []
        t_n, value, terms, scale = _abel_route(g, p)
        assert abel_violations(g.direction, t_n, value, terms, scale) == []

    def test_refinement_may_not_lower_the_sum(self):
        assert refinement_violations([0.1, 0.2, 0.2]) == []
        assert refinement_violations([0.1, 0.3, 0.2]) == ["refinement decreased the sum: 0.3 -> 0.2"]

    def test_refinement_slack_is_relative_to_t_n(self):
        assert refinement_violations([1e22, 1e22 - 2**21]) == []
        assert refinement_violations([1e22, 1e22 * (1 - 1e-11)]) != []

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.floats(0.0, 25.0), st.floats(8.0, 16.0)).map(
            lambda e: (-(10.0 ** e[0]) * 10.0 ** -e[1], 10.0 ** e[0])
        ),
        st.integers(1, 299),
        st.integers(0, 2**32 - 1),
    )
    @example((-933069.6917268508, 7.928326914573109e21), 210, 1)
    def test_one_ulp_steps_of_a_large_chain_are_no_violation(self, slope_intercept, n, seed):
        # a nearly flat g far from 0: each refinement moves T_n by rounding only
        w = np.random.default_rng(seed).lognormal(0.0, 2.0, n)
        chain = refinement_chain(linear(*slope_intercept), cumulative(from_weights(w / w.sum())), 3)
        assert refinement_violations(chain) == []


catalog_g = st.one_of(
    st.floats(0.1, 5.0).map(power_complement),
    st.floats(0.1, 10.0).map(exponential),
    st.sampled_from([logarithmic(), reciprocal(), trigonometric()]),
    st.floats(-4.0, 4.0).map(constant),
    st.tuples(st.floats(0.01, 4.0), st.floats(-2.0, 2.0)).map(lambda mb: linear(-mb[0], mb[1])),
)


@st.composite
def table_knots(draw):
    """Knots of a decreasing table: x from 0 to 1, y falling from at most 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    return list(zip(xs.tolist(), np.sort(rng.uniform(-2.0, 2.0, n))[::-1].tolist()))


class TestScaleEquivariance:
    """Multiplying g by c = 2^k is exact in float64 while no result underflows,
    so every value the bound routes compute scales by c bit for bit.  Below
    the normal range a product rounds to the subnormal grid and the property
    fails (a constant g of 4.2e-280 with c = 2^-91 does), so an example in
    which numpy reports an underflow, in either run or in scaling the
    expected values, is rejected."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(catalog_g.map(lambda g: (g, None)), table_knots().map(lambda k: (tabulated(k), k))),
        st.integers(-900, 900),
        st.integers(1, 1999),
        st.integers(0, 2**32 - 1),
    )
    def test_values_scale_with_g(self, g_knots, k, n, seed):
        g, knots = g_knots
        c = np.float64(2.0**k)  # numpy arithmetic, so an underflowing product is reported
        w = np.random.default_rng(seed).lognormal(0.0, 2.0, n)
        p = cumulative(from_weights(w, normalize=True))

        def values(g):
            r = bound_report(g, p)
            return np.array([
                r.t_n, r.integral, r.gap, r.gap_bound, r.abel_value, riemann_sum_left(g, p),
                *refinement_chain(g, p, 2), *abel_terms(g, p),
            ])

        with np.errstate(under="raise"):
            try:
                if knots is None:
                    cg = dataclasses.replace(
                        g, closed_form_integral=float(c * g.closed_form_integral), _fn=lambda x: c * g._fn(x)
                    )
                else:
                    cg = tabulated([(x, float(c * y)) for x, y in knots])
                scaled, expected = values(cg), c * values(g)
            except FloatingPointError:
                reject()
        assert [v.hex() for v in scaled] == [v.hex() for v in expected]


class TestNegation:
    """g -> -g flips the direction and negates every value exactly, and each
    sum is correctly rounded, which is symmetric under negation: every value
    negates bit for bit, and the verdicts do not move."""

    @settings(max_examples=60, deadline=None)
    @given(table_knots(), st.floats(-5.0, 5.0), st.integers(1, 2999), st.integers(0, 2**32 - 1))
    def test_values_negate_and_verdicts_stay(self, knots, log_scale, n, seed):
        c = 10.0**log_scale
        g = tabulated([(x, c * y) for x, y in knots])
        ng = tabulated([(x, -c * y) for x, y in knots])
        p = cumulative(from_weights(np.random.default_rng(seed).lognormal(0.0, 2.0, n), normalize=True))

        def outcome(g):
            r, left = bound_report(g, p), riemann_sum_left(g, p)
            values = np.array([r.t_n, r.integral, r.gap, r.gap_bound, r.abel_value, left])
            return values, r.strict, len(r.invariant_violations(left)), r.direction

        values, strict, violations, direction = outcome(g)
        n_values, n_strict, n_violations, n_direction = outcome(ng)
        assert [v.hex() for v in n_values] == [(-v).hex() for v in values]
        assert (n_strict, n_violations) == (strict, violations)
        assert (direction, n_direction) == (DECREASING, INCREASING)


@st.composite
def dyadic_tables(draw):
    """Weights k_i / 2^30 summing to exactly 1, so every breakpoint S_i and
    1 - S_i is exact, and knots (S_i, y_i) of a decreasing table."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.unique(rng.integers(1, 2**30, draw(st.integers(0, 1998))))
    w = np.diff(np.concatenate(([0], cuts, [2**30]))) / 2.0**30
    ys = np.sort(rng.uniform(-2.0, 2.0, w.size + 1))[::-1] * 10.0 ** draw(st.floats(-5.0, 5.0))
    return w, ys


class TestReflection:
    """h(x) = g(1 - x) with the weights reversed is the paper's left/right
    duality: the right sum of h is the left sum of g and the other way round.
    With dyadic weights and a knot of g at every breakpoint, both sums take
    the same multiset of exact products, and each is correctly rounded, so
    they agree bit for bit.  This is the one exact check on the left sum."""

    @settings(max_examples=60, deadline=None)
    @given(dyadic_tables())
    def test_right_and_left_sums_trade_places(self, table):
        w, ys = table
        p, q = cumulative(from_weights(w)), cumulative(from_weights(w[::-1]))
        assert np.array_equal(q.array, 1.0 - p.array[::-1])  # the breakpoints are exact
        g = tabulated(list(zip(p.array.tolist(), ys.tolist())))
        h = tabulated(list(zip(q.array.tolist(), ys[::-1].tolist())))
        assert riemann_sum_right(h, q).hex() == riemann_sum_left(g, p).hex()
        assert riemann_sum_left(h, q).hex() == riemann_sum_right(g, p).hex()
        assert h.closed_form_integral.hex() == g.closed_form_integral.hex()
        assert (g.direction, h.direction) in ((DECREASING, INCREASING), ("constant", "constant"))


@st.composite
def strictness_cases(draw):
    """A table that falls, rises, is constant or has plateaus, at a scale
    10^-300..10^300, its knot values sometimes an ulp apart, and fewer than
    40 log-normal weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    levels = np.sort(rng.integers(0, draw(st.sampled_from([1, 2, 4, 1000])), n))
    levels = draw(st.sampled_from([levels, levels[::-1]]))
    ulp = draw(st.sampled_from([1.0, 2.0**-52]))
    ys = (1.0 + ulp * levels) * 10.0 ** draw(st.integers(-300, 300))
    weights = rng.lognormal(0.0, 2.0, draw(st.integers(1, 39)))
    return list(zip(xs.tolist(), ys.tolist())), weights


class TestStrictness:
    """``strict`` is the exact gap's being nonzero: the gap is a sum of
    per-cell deficits of one sign, which all vanish only for a constant g."""

    @settings(max_examples=300, deadline=None)
    @given(strictness_cases())
    def test_strict_is_an_exact_nonzero_gap(self, case):
        knots, weights = case
        g, p = tabulated(knots), cumulative(from_weights(weights, normalize=True))
        xs, ys = ([Fraction(v) for v in column] for column in zip(*knots))
        integral = sum((x1 - x0) * (y0 + y1) / 2 for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))

        def interpolant(s):
            j = int(np.searchsorted(g.kinks, s, side="right"))  # xs[j] <= s <= xs[j + 1]
            return ys[j] + (s - xs[j]) * (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])

        bps = [Fraction(v) for v in p.array.tolist()]
        t_n = sum((s1 - s0) * interpolant(s1) for s0, s1 in zip(bps, bps[1:]))
        assert bound_report(g, p).strict == (integral != t_n)


class TestStreamingMemory:
    """The sums stream their terms through block-sized buffers: beyond g's own
    values (and its evaluation's temporary), no full-size array is built."""

    @pytest.mark.parametrize("route", [bound_report, riemann_sum_left], ids=["bound_report", "left"])
    @pytest.mark.parametrize("g", [reciprocal(), exponential(1.0), trigonometric()], ids=["recip", "exp", "trig"])
    def test_peak_memory_at_most_two_and_a_half_arrays(self, route, g):
        n = 2**20
        p = cumulative(uniform_weights(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            route(g, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n

    @pytest.mark.parametrize("g", [reciprocal(), exponential(1.0), trigonometric()], ids=["recip", "exp", "trig"])
    def test_refinement_chain_builds_no_refined_partition(self, g):
        # the depth-5 partition alone would be 2**21 breakpoints, 16 MiB
        p = cumulative(uniform_weights(2**16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            refinement_chain(g, p, 5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * _summation._CHUNK * 8


class TestGapBound:
    def test_worked_example_value(self):
        b = gap_bound(power_complement(2), worked_partition())
        assert b == 0.5
        assert b >= 2.0 / 3.0 - 0.417

    def test_constant_gives_zero(self):
        assert gap_bound(constant(9), worked_partition()) == 0.0

    def test_reciprocal_uniform_10(self):
        b = gap_bound(reciprocal(), cumulative(uniform_weights(10)))
        assert b == pytest.approx(0.05, abs=1e-15)

    def test_increasing_rejected(self):
        with pytest.raises(NonMonotoneFunction):
            gap_bound(linear(1, 0), worked_partition())

    @given(weight_lists)
    def test_gap_never_exceeds_bound(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        for g in (power_complement(2), trigonometric()):
            gap = g.closed_form_integral - riemann_sum_right(g, p)
            assert gap <= gap_bound(g, p) + 1e-12


class TestEnclosure:
    @given(weight_lists)
    def test_right_below_left_above(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        for g in CATALOG:
            i = g.closed_form_integral
            assert riemann_sum_right(g, p) <= i + 1e-12
            assert i <= riemann_sum_left(g, p) + 1e-12


class TestWrongArrayType:
    """A WeightVector holds an array too, but its weights are no breakpoints."""

    CALLS = {
        "riemann_sum_right": lambda p: riemann_sum_right(reciprocal(), p),
        "riemann_sum_left": lambda p: riemann_sum_left(reciprocal(), p),
        "abel_sum": lambda p: abel_sum(reciprocal(), p),
        "abel_terms": lambda p: abel_terms(reciprocal(), p),
        "gap_bound": lambda p: gap_bound(reciprocal(), p),
        "bound_report": lambda p: bound_report(constant(3), p),
        "refinement_chain": lambda p: refinement_chain(reciprocal(), p, 1),
        "bisect_all": bisect_all,
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_weight_vector_is_refused(self, call):
        with pytest.raises(TypeError) as info:
            call(from_weights([0.3, 0.7]))
        assert str(info.value) == "expected a CumulativePartition, got WeightVector; build one with cumulative(w)"


class TestRefinementChain:
    def test_bisection_values_from_trivial_partition(self):
        chain = refinement_chain(power_complement(2), CumulativePartition([0.0, 1.0]), 3)
        # brute-force bisection sums: all breakpoints are exact dyadics
        assert chain == [0.0, 0.375, 0.53125, 0.6015625]

    def test_constant_chain_is_flat(self):
        chain = refinement_chain(constant(2.0), worked_partition(), 3)
        assert chain == [2.0, 2.0, 2.0, 2.0]

    def test_depth_1_on_worked_partition(self):
        chain = refinement_chain(power_complement(2), worked_partition(), 1)
        assert chain[0] == pytest.approx(0.417, abs=1e-12)
        assert chain[1] >= chain[0]

    def test_chain_is_monotone_and_bounded(self):
        g = reciprocal()
        chain = refinement_chain(g, worked_partition(), 5)
        assert all(b >= a - 1e-12 for a, b in zip(chain, chain[1:]))
        assert all(v <= g.closed_form_integral + 1e-12 for v in chain)

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            refinement_chain(reciprocal(), worked_partition(), 0)

    def test_increasing_rejected(self):
        with pytest.raises(NonMonotoneFunction):
            refinement_chain(linear(2, 0), worked_partition(), 1)

    @given(weight_lists, st.integers(min_value=0, max_value=4), st.floats(min_value=0.2, max_value=0.8))
    def test_single_point_refinement_never_decreases(self, raw, offset, frac):
        p = cumulative(from_weights(raw, normalize=True))
        i = offset % p.n + 1
        lo, hi = p.breakpoints[i - 1], p.breakpoints[i]
        m = lo + (hi - lo) * frac
        if not lo < m < hi:
            return
        q = CumulativePartition(sorted(p.breakpoints + (m,)))
        g = trigonometric()
        assert riemann_sum_right(g, q) >= riemann_sum_right(g, p) - 1e-12


class TestNonFiniteValues:
    """Values of g, or sums of them, that overflow float64.

    Every route raises NonFiniteValue, on the fsum path (n = 3) and through
    the blocked core (n = 2000), and no floating-point warning is raised on
    the way (warnings are errors here).
    """

    steep = tabulated([(0.0, 1e308), (1.0, -1e308)])  # -inf strictly between the knots
    vee = tabulated([(0.0, 1e308), (0.5, -1e308), (1.0, 1e308)])  # -inf, then +inf
    third = 1.0 / 3.0  # S_1 of uniform_weights(3)
    # finite at every S_i of uniform_weights(3), but g(S_1) - g(S_2) overflows
    cliff = tabulated([(0.0, 1e308), (third, 1e308), (0.34, -1e308), (1.0, -1e308)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [3, 2000], ids=["fsum", "blocked"])
    @pytest.mark.parametrize("g", [steep, vee], ids=["steep", "vee"])
    @pytest.mark.parametrize("route", [riemann_sum_right, riemann_sum_left, abel_sum, abel_terms])
    def test_values_that_are_not_finite(self, route, g, n):
        with pytest.raises(NonFiniteValue, match="the (Riemann|Abel) sum of g is not finite"):
            route(g, cumulative(uniform_weights(n)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [3, 2000], ids=["fsum", "blocked"])
    def test_bound_report_and_chain_decide_from_t_n(self, n):
        p = cumulative(uniform_weights(n))
        with pytest.raises(NonFiniteValue, match="the Riemann sum of g"):
            bound_report(self.steep, p)
        with pytest.raises(NonFiniteValue, match="the Riemann sum of g"):
            refinement_chain(self.steep, p, 2)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_differences_and_gap_bound(self):
        p = cumulative(uniform_weights(3))
        assert math.isfinite(riemann_sum_right(self.cliff, p))
        for route in (abel_sum, bound_report):
            with pytest.raises(NonFiniteValue, match="the Abel sum of g"):
                route(self.cliff, p)
        kink = tabulated([(0.0, 1e308), (0.01, 0.0), (1.0, -1e308)])  # g(0) - g(1) overflows
        for route in (gap_bound, bound_report):
            with pytest.raises(NonFiniteValue, match="the gap or its bound"):
                route(kink, p)
