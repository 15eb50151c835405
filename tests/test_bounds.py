import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monobound.bounds import (
    BoundReport,
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

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            bound_report(power_complement(2), worked_partition(), tol=-1e-9)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError):
            bound_report(power_complement(2), worked_partition(), tol=tol)

    @given(weight_lists)
    def test_reports_clean_on_random_weights(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        r = bound_report(exponential(1), p)
        assert r.invariant_violations() == []
        assert r.gap >= -1e-12

    def test_keeps_its_tolerance_and_scale(self):
        r = bound_report(linear(2, -3), worked_partition(), tol=1e-7)
        assert (r.tol, r.scale) == (1e-7, 3.0)

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
        assert abel_violations(DECREASING, 1e6, 1e6 + 1e-7, [0.0]) == []
        assert abel_violations(DECREASING, 1.0, 1.0 + 1e-11, [0.0]) == [
            f"Abel route {1.0 + 1e-11!r} disagrees with direct sum 1.0"
        ]

    def test_negative_terms_are_allowed_only_for_increasing_g(self):
        assert abel_violations(INCREASING, 0.5, 0.5, [-0.25]) == []
        assert abel_violations(DECREASING, 0.5, 0.5, [-0.25]) == [
            "negative Abel term -0.25 for a decreasing function"
        ]

    def test_refinement_may_not_lower_the_sum(self):
        assert refinement_violations([0.1, 0.2, 0.2]) == []
        assert refinement_violations([0.1, 0.3, 0.2]) == ["refinement decreased the sum: 0.3 -> 0.2"]


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
