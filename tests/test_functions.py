import dataclasses
import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from monobound.bounds import bound_report
from monobound.errors import DomainViolation, NonMonotoneFunction, NotConvex
from monobound.functions import (
    CONSTANT,
    DECREASING,
    INCREASING,
    NON_MONOTONE,
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    quadrature_integral,
    require_convex,
    require_monotone,
    reciprocal,
    tabulated,
    trigonometric,
)
from monobound.partitions import cumulative, uniform_weights

STRICT_FIVE = [
    power_complement(2),
    exponential(1),
    logarithmic(),
    reciprocal(),
    trigonometric(),
]


class TestEvaluate:
    def test_power_complement_at_02(self):
        assert power_complement(2)(0.2) == pytest.approx(0.96, abs=1e-15)

    def test_constant_everywhere(self):
        g = constant(3.5)
        for x in (0.0, 0.25, 1.0):
            assert g(x) == 3.5

    def test_reciprocal_at_1(self):
        assert reciprocal()(1.0) == 0.5

    @pytest.mark.parametrize("x", [-0.1, 1.1, -1e-9])
    def test_domain_violation(self, x):
        with pytest.raises(DomainViolation):
            power_complement(2)(x)

    def test_evaluation_is_pure(self):
        g = exponential(1.7)
        assert g(0.37) == g(0.37)

    def test_values_matches_scalar_calls(self):
        g = logarithmic()
        xs = np.linspace(0.0, 1.0, 17)
        assert all(v == g(x) for v, x in zip(g.values(xs), xs))


class TestClosedForm:
    def test_power_complement_k2(self):
        assert power_complement(2).closed_form_integral == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_constant(self):
        assert constant(5).closed_form_integral == 5.0

    def test_exponential_lambda_1(self):
        g = exponential(1)
        assert g.closed_form_integral == pytest.approx(0.6321205588, abs=1e-10)
        assert g.closed_form_integral == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize("lam", [1e-5, 1e-9, 1e-12])
    def test_exponential_small_lambda_does_not_cancel(self, lam):
        # (1 - e^-lam)/lam = 1 - lam/2 + lam^2/6 - lam^3/24 + ...
        expected = 1.0 - lam / 2.0 + lam**2 / 6.0 - lam**3 / 24.0
        assert exponential(lam).closed_form_integral == pytest.approx(expected, rel=4e-16)

    def test_exponential_tiny_lambda_integral_is_one(self):
        assert exponential(1e-17).closed_form_integral == 1.0

    def test_linear(self):
        assert linear(-1, 1).closed_form_integral == 0.5

    def test_tabulated_is_the_trapezoid_sum(self):
        g = tabulated([(0.0, 1.0), (0.25, 0.5), (1.0, 0.0)])
        assert g.closed_form_integral == 0.25 * 0.75 + 0.75 * 0.25

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 0.5])
    def test_power_family(self, k):
        assert power_complement(k).closed_form_integral == pytest.approx(
            k / (k + 1.0), abs=1e-15
        )


class TestPowerComplement:
    XS = np.concatenate(([0.0, 5e-324, 1e-300, 1e-8], np.linspace(0.0, 1.0, 33)[1:], [1.0 - 2.0**-53]))

    @pytest.mark.parametrize("k", [1, 2, 3, 2.5, 10])
    def test_k_at_least_1_keeps_its_bits(self, k):
        g = power_complement(k)
        assert g.values(self.XS).tobytes() == (1.0 - self.XS**k).tobytes()
        assert all(g(x) == 1.0 - x**k for x in self.XS.tolist())

    @pytest.mark.parametrize("k", [1e-15, 1e-9, 0.3, 0.5, 1.0 - 2.0**-53])
    def test_k_below_1_is_accurate(self, k):
        # against 1 - exp(k ln x) in 60-digit decimal arithmetic
        g = power_complement(k)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for x, got, scalar in zip(self.XS.tolist(), g.values(self.XS).tolist(), map(g, self.XS.tolist())):
                want = 1 - (Decimal(k) * Decimal(x).ln()).exp() if x > 0 else Decimal(1)
                assert got == scalar
                assert abs(Decimal(got) - want) <= 4 * Decimal(2) ** -53 * abs(want), (k, x)

    @pytest.mark.parametrize("k", [1e-15, 0.5])
    def test_k_below_1_endpoints(self, k):
        # 0 ** k is 1 - 1 = 0 at x = 0 through ln 0 = -inf, with no warning;
        # g(1) is +0.0 as 1 - 1**k is
        g = power_complement(k)
        assert g(0.0) == 1.0 and g.values([0.0])[0] == 1.0
        assert math.copysign(1.0, g(1.0)) == 1.0
        assert math.copysign(1.0, g.values([1.0])[0]) == 1.0

    def test_tiny_k_bound_stays_below_the_integral(self):
        # 1 - x**k cancelled to a t_n 1.25 % above the integral here
        report = bound_report(power_complement(1e-15), cumulative(uniform_weights(10**6)))
        assert report.gap >= 0.0
        assert report.invariant_violations() == []


class TestQuadratureIntegral:
    def test_power_complement(self):
        v = quadrature_integral(power_complement(2), tol=1e-10)
        assert v == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_constant(self):
        assert quadrature_integral(constant(4.25), tol=1e-10) == pytest.approx(4.25, abs=1e-12)

    def test_trigonometric(self):
        assert quadrature_integral(trigonometric(), tol=1e-10) == pytest.approx(
            0.6366197724, abs=1e-10
        )

    @pytest.mark.parametrize("g", STRICT_FIVE, ids=lambda g: g.kind)
    def test_catalog_consistency(self, g):
        # the standing cross-check: closed form vs the in-house oracle
        assert abs(quadrature_integral(g, 1e-10) - g.closed_form_integral) <= 1e-9

    @pytest.mark.parametrize("g", STRICT_FIVE, ids=lambda g: g.kind)
    def test_against_external_quadrature(self, g):
        # third route: an unrelated quadrature implementation
        ref, _ = integrate.quad(lambda x: g(x), 0.0, 1.0, epsabs=1e-12)
        assert g.closed_form_integral == pytest.approx(ref, abs=1e-9)

    def test_tabulated_quadrature(self):
        g = tabulated([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        # trapezoid areas by hand: 0.5*(1+0.5)/2 + 0.5*(0.5+0)/2 = 0.5
        assert quadrature_integral(g, 1e-10) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("knots", [2, 3, 17, 256, 5000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_jittered_tables_agree_with_the_closed_form(self, knots, seed):
        rng = np.random.default_rng([seed, knots])
        xs = np.linspace(0.0, 1.0, knots)
        xs[1:-1] += rng.uniform(-0.4, 0.4, knots - 2) / (knots - 1)
        ys = rng.uniform(-2.0, 2.0, knots)
        g = tabulated(list(zip(xs.tolist(), ys.tolist())))
        assert abs(quadrature_integral(g, 1e-10) - g.closed_form_integral) <= 1e-10


UNIT_ROUNDOFF = 2.0**-53
#: Smallest subnormal: halving a y or forming a product may underflow by it.
ETA = 2.0**-1074


def interpolant_integral(xs, ys) -> Fraction:
    """Exact integral of the piecewise-linear interpolant through float knots."""
    x, y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    return sum((x[i + 1] - x[i]) * (y[i] + y[i + 1]) / 2 for i in range(len(x) - 1))


@st.composite
def knot_tables(draw):
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=40, unique=True))
    xs = [0.0, *sorted(inner), 1.0]
    magnitude = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    ys = draw(st.lists(magnitude, min_size=len(xs), max_size=len(xs)))
    return xs, ys


class TestTabulatedClosedForm:
    @given(knot_tables())
    def test_within_four_units_of_the_exact_integral(self, table):
        # the width, the mean of each y pair, the product and the final
        # rounding are one unit each
        xs, ys = table
        got = tabulated(list(zip(xs, ys))).closed_form_integral
        x = [Fraction(v) for v in xs]
        scale = sum((x[i + 1] - x[i]) * (abs(Fraction(ys[i])) + abs(Fraction(ys[i + 1]))) / 2
                    for i in range(len(xs) - 1))
        bound = 4 * Fraction(UNIT_ROUNDOFF) * scale + 2 * len(xs) * Fraction(ETA)
        assert abs(Fraction(got) - interpolant_integral(xs, ys)) <= bound

    @pytest.mark.parametrize("ys, want", [
        ([1e308, 1e308], 1e308),
        ([-1e308, -1e308, -1e308], -1e308),
        ([1e308, -1e308, 1e308], 0.0),
        ([1.7976931348623157e308, 1.7976931348623157e308], 1.7976931348623157e308),
    ])
    def test_huge_knots_give_a_finite_integral(self, ys, want):
        xs = np.linspace(0.0, 1.0, len(ys)).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tabulated(list(zip(xs, ys))).closed_form_integral == want

    def test_subnormal_knots_give_the_correctly_rounded_mean(self):
        # halving 3 * 2^-1074 first would round each half, 1.5 * 2^-1074, to 2 * 2^-1074
        assert tabulated([(0.0, 3 * 5e-324), (1.0, 3 * 5e-324)]).closed_form_integral == 3 * 5e-324


class TestProbe:
    """Directions declared at construction, checked by sampling g on a
    grid, and the knot witness of a function that rises and falls."""

    def test_power_complement_probes_strictly_decreasing(self):
        g = power_complement(2)
        assert g.direction == DECREASING
        assert (np.diff(g.values(np.linspace(0.0, 1.0, 101))) < 0.0).all()

    def test_constant_probes_constant(self):
        g = constant(3)
        assert g.direction == CONSTANT
        assert (np.diff(g.values(np.linspace(0.0, 1.0, 11))) == 0.0).all()

    def test_bump_probes_non_monotone_with_witness(self):
        g = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert g.direction == NON_MONOTONE
        with pytest.raises(NonMonotoneFunction) as info:
            require_monotone(g, "op")
        assert info.value.witness == (0.5, 1.0)  # the knots where the direction flips

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slopes_probe_without_warnings(self):
        # the knot differences overflow to -inf and +inf and keep their signs
        g = tabulated([(0.0, 1e308), (0.5, -1e308), (1.0, 1e308)])
        with pytest.raises(NonMonotoneFunction) as info:
            require_monotone(g, "op")
        assert info.value.witness == (0.5, 1.0)

    @pytest.mark.parametrize("g", STRICT_FIVE, ids=lambda g: g.kind)
    def test_catalog_functions_strictly_decreasing(self, g):
        assert g.direction == DECREASING
        assert (np.diff(g.values(np.linspace(0.0, 1.0, 1001))) < 0.0).all()

    def test_increasing_linear(self):
        g = linear(2, 0)
        assert g.direction == INCREASING
        assert (np.diff(g.values(np.linspace(0.0, 1.0, 1001))) > 0.0).all()


class TestRequireMonotone:
    @pytest.mark.parametrize("points, witness", [
        # knot differences below any sampling tie tolerance still count
        ([(0.0, 1.0), (0.5, 0.5), (0.75, 0.5 + 1e-13), (1.0, 0.0)], (0.5, 0.75)),
        ([(0.0, 0.0), (0.5, 1e-15), (1.0, 0.0)], (0.5, 1.0)),
    ])
    def test_witness_is_the_first_knot_segment_against_the_trend(self, points, witness):
        g = tabulated(points)
        assert g.direction == NON_MONOTONE
        with pytest.raises(NonMonotoneFunction) as info:
            require_monotone(g, "op")
        assert info.value.witness == witness

    def test_no_witness_unless_the_knot_values_rise_and_fall(self):
        g = dataclasses.replace(linear(-1.0, 1.0), direction=NON_MONOTONE)
        with pytest.raises(NonMonotoneFunction) as info:
            require_monotone(g, "op")
        assert info.value.witness is None

    def test_increasing_rejected_only_when_decreasing_is_asked(self):
        require_monotone(linear(2, 0), "op")
        require_monotone(constant(3), "op", decreasing=True)
        with pytest.raises(NonMonotoneFunction) as info:
            require_monotone(linear(2, 0), "op", decreasing=True)
        assert info.value.witness is None

    @given(st.data())
    def test_tables_return_their_knot_values_exactly(self, data):
        # the witness reads g at its knots; np.interp must hand back the ys
        xs, _ = data.draw(knot_tables())
        extreme = st.sampled_from([-0.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.0**-1060])
        y = st.one_of(st.floats(allow_nan=False, allow_infinity=False), extreme)
        ys = data.draw(st.lists(y, min_size=len(xs), max_size=len(xs)))
        got = tabulated(list(zip(xs, ys))).values(np.array(xs))
        assert got.tobytes() == np.array(ys, dtype=float).tobytes()


@st.composite
def shaped_knots(draw):
    """Knots of a table that is convex by construction (V shapes among them),
    linear, or random, with one knot nudged by an ulp half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, draw(st.integers(0, 30))))))
    shape = draw(st.sampled_from(["convex", "v", "line", "random"]))
    if shape == "convex":
        slopes = np.sort(rng.uniform(-3.0, 3.0, xs.size - 1))
        ys = rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    elif shape == "v":
        ys = rng.uniform(0.5, 2.0) * np.abs(xs - rng.uniform(0.0, 1.0))
    elif shape == "line":
        ys = 0.75 - 0.5 * xs
    else:
        ys = rng.uniform(-1.0, 1.0, xs.size)
    if draw(st.booleans()):
        j = rng.integers(xs.size)
        ys[j] = np.nextafter(ys[j], draw(st.sampled_from([-np.inf, np.inf])))
    return list(zip(xs.tolist(), ys.tolist()))


class TestRequireConvex:
    """Convexity as a stated fact: catalog members state it, a table's knots
    decide it exactly, and any other callable is convex on its caller's word."""

    @pytest.mark.parametrize("g, convex", [
        (power_complement(0.5), True), (power_complement(1), True), (power_complement(2), False),
        (exponential(2), True), (logarithmic(), False), (reciprocal(), True), (trigonometric(), False),
        (constant(3), True), (linear(-1, 1), True), (linear(2, 0), True),
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_catalog_members_state_their_curvature(self, g, convex):
        a, m, b = g.values(np.array([0.0, 0.5, 1.0])).tolist()
        assert g.convex is convex
        if convex:
            assert m <= (a + b) / 2 + 1e-15
            require_convex(g, "op")
        else:
            assert m > (a + b) / 2  # so (0, 0.5, 1) is a true witness
            with pytest.raises(NotConvex, match="^op requires a convex function") as info:
                require_convex(g, "op")
            assert info.value.witness == (0.0, 0.5, 1.0)

    def test_a_bare_callable_is_taken_at_its_word(self):
        require_convex(lambda t: -t * t, "op")

    @settings(max_examples=300, deadline=None)
    @given(shaped_knots())
    def test_tables_agree_with_exact_chords(self, knots):
        # the middle of three knots must lie on or below their outer chord
        g = tabulated(knots)
        assert g.convex is None
        x, y = ([Fraction(v) for v in c] for c in zip(*knots))
        above = [
            j for j in range(1, len(x) - 1)
            if y[j] * (x[j + 1] - x[j - 1]) > y[j - 1] * (x[j + 1] - x[j]) + y[j + 1] * (x[j] - x[j - 1])
        ]
        if not above:
            require_convex(g, "op")
            return
        with pytest.raises(NotConvex) as info:
            require_convex(g, "op")
        assert info.value.witness == tuple(float(v) for v in x[above[0] - 1 : above[0] + 2])


class TestConstructorsValidate:
    @pytest.mark.parametrize("k", [0, -1, math.nan])
    def test_power_needs_positive_k(self, k):
        with pytest.raises(ValueError):
            power_complement(k)

    @pytest.mark.parametrize("lam", [0, -2.5, math.inf])
    def test_exponential_needs_positive_lambda(self, lam):
        with pytest.raises(ValueError):
            exponential(lam)

    def test_real_k_accepted(self):
        # k is any positive real, not just an integer
        g = power_complement(2.5)
        assert g(0.5) == pytest.approx(1.0 - 0.5**2.5, abs=1e-15)

    def test_linear_direction_from_slope(self):
        assert linear(-1, 1).direction == DECREASING
        assert linear(0.5, 0).direction == INCREASING
        assert linear(0, 2).direction == CONSTANT


class TestTabulated:
    def test_interpolates_between_knots(self):
        g = tabulated([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        assert g(0.25) == 0.75
        assert g(0.0) == 1.0 and g(1.0) == 0.0

    def test_direction_classification(self):
        assert tabulated([(0.0, 1.0), (1.0, 0.0)]).direction == DECREASING
        assert tabulated([(0.0, 0.0), (1.0, 1.0)]).direction == INCREASING
        assert tabulated([(0.0, 1.0), (1.0, 1.0)]).direction == CONSTANT
        assert tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]).direction == NON_MONOTONE

    def test_plateau_breaks_strictness(self):
        # a plateau makes g not strictly decreasing, yet the gap stays positive:
        # only a constant g reaches equality
        g = tabulated([(0.0, 1.0), (0.4, 0.5), (0.6, 0.5), (1.0, 0.0)])
        assert g.direction == DECREASING
        assert bound_report(g, cumulative(uniform_weights(5))).strict is True

    def test_knots_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            tabulated([(0.1, 1.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            tabulated([(0.0, 1.0), (0.9, 0.0)])

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            tabulated([(0.0, 1.0), (0.5, 0.7), (0.5, 0.4), (1.0, 0.0)])

    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            tabulated([(0.0, 1.0)])

    def test_kinks_are_interior_knots(self):
        g = tabulated([(0.0, 1.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.0)])
        assert g.kinks == (0.3, 0.7)
