import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monobound import quadrature, transform
from monobound.bounds import bound_report, refinement_chain
from monobound.errors import InvalidArgument, NonFiniteValue, NonMonotoneFunction
from monobound.functions import (
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    reciprocal,
    tabulated,
    trigonometric,
)
from monobound.partitions import cumulative, from_weights, uniform_weights
from monobound.transform import (
    pit_identity_check,
    polynomial_density,
    tabulated_density,
    triangular_density,
    uniform_density,
)


EPS = float(np.finfo(float).eps)
#: Test ids of ``catalog_densities()``.
DENSITY_IDS = ["uniform", "polynomial0", "polynomial1", "triangular", "tabulated"]


def catalog_densities():
    return [
        uniform_density(),
        polynomial_density([0.0, 2.0]),
        polynomial_density([0.5, 1.0]),
        triangular_density(0.5),
        tabulated_density([(0.0, 0.5), (0.25, 1.8), (0.6, 1.2), (1.0, 0.1)]),
    ]


def catalog_functions():
    return [
        power_complement(2),
        exponential(1),
        logarithmic(),
        reciprocal(),
        trigonometric(),
        constant(1.0),
        linear(-1.0, 1.0),
    ]


class TestDensities:
    def test_uniform_is_one(self):
        f = uniform_density()
        assert f(0.3) == 1.0

    def test_polynomial_requires_unit_mass(self):
        with pytest.raises(InvalidArgument) as info:
            polynomial_density([1.0, 1.0])  # mass 1.5
        assert str(info.value) == "density has mass 1.5 on [0, 1]; expected 1 within 1e-09"

    def test_polynomial_mass_is_checked_before_f_is_evaluated(self):
        # f(1) = 1e308 + 1e308 overflows; the mass 1.5e308 is refused first
        with pytest.raises(InvalidArgument) as info:
            polynomial_density([1e308, 1e308])
        assert str(info.value) == "density has mass 1.5e+308 on [0, 1]; expected 1 within 1e-09"

    def test_polynomial_mass_that_overflows_is_not_finite(self):
        with pytest.raises(NonFiniteValue, match="the mass of the polynomial"):
            polynomial_density([1e308, 1e308, 1e308])

    def test_polynomial_rejects_negative_values(self):
        with pytest.raises(ValueError):
            polynomial_density([-0.5, 3.0])  # f(0) < 0 despite unit mass

    def test_polynomial_rejects_an_interior_dip_between_grid_points(self):
        # a(x - x0)^2 + b with unit mass: its minimum f(x0) = b lies at a
        # root of f', between the points of any uniform grid of step 1e-3
        x0, b = 0.50005, -1e-10
        a = 3.0 * (1.0 - b) / ((1.0 - x0) ** 3 + x0**3)
        with pytest.raises(ValueError, match="density is negative: f\\(0.5000"):
            polynomial_density([a * x0 * x0 + b, -2.0 * a * x0, a])

    def test_polynomial_minimum_within_the_slack_is_accepted(self):
        x0, b = 0.3, -1e-13
        a = 3.0 * (1.0 - b) / ((1.0 - x0) ** 3 + x0**3)
        f = polynomial_density([a * x0 * x0 + b, -2.0 * a * x0, a])
        assert f(x0) < 0.0

    @pytest.mark.filterwarnings("error")
    def test_polynomial_with_a_negligible_top_coefficient(self):
        # unit mass, but f(1) < 0; the roots of f' are found without overflow
        with pytest.raises(ValueError, match="density is negative: f\\(1.0\\)"):
            polynomial_density([1.0, 2.0**996, -3.0 * 2.0**995, 1e-10])

    def test_triangular_peak_validated(self):
        with pytest.raises(ValueError):
            triangular_density(1.5)

    def test_uniform_is_a_table(self):
        f, table = uniform_density(), tabulated_density([(0.0, 1.0), (1.0, 1.0)])
        assert f.kinks == table.kinks == ()
        xs = np.array([-1e300, -3.0, -0.5, 0.0, 1e-300, 0.3, 0.7, 1.0, 1.5, 1e200, math.inf, -math.inf])
        assert f.values(xs).tolist() == table.values(xs).tolist() == [1.0] * xs.size
        assert f.cdf(xs).tobytes() == table.cdf(xs).tobytes() == np.clip(xs, 0.0, 1.0).tobytes()

    def test_triangular_apex_value(self):
        assert triangular_density(0.5)(0.5) == 2.0
        assert triangular_density(0.0)(0.0) == 2.0
        assert triangular_density(1.0)(1.0) == 2.0

    def test_triangular_is_a_table(self):
        assert triangular_density(0.25).kinks == (0.25,)
        assert triangular_density(0.0).kinks == triangular_density(1.0).kinks == ()

    def test_tabulated_renormalizes(self):
        f = tabulated_density([(0.0, 1.0), (1.0, 3.0)])  # trapezoid mass 2
        assert f(0.0) == pytest.approx(0.5, abs=1e-15)
        assert f(1.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tabulated_renormalizes_values_near_the_float_limit(self):
        # (y0 + y1) / 2 would overflow here; the mass is 1.25e308
        f = tabulated_density([(0.0, 1e308), (0.5, 1.5e308), (1.0, 1e308)])
        assert f.values([0.0, 0.5, 1.0]) == pytest.approx([0.8, 1.2, 0.8], rel=1e-15)
        assert f.cdf([0.5, 1.0]).tolist() == [0.5, 1.0]

    def test_tabulated_renormalizes_subnormal_values(self):
        # the mass is 3 * 2^-1074 exactly, so the density is exactly uniform
        f = tabulated_density([(0.0, 3 * 5e-324), (1.0, 3 * 5e-324)])
        assert f.values([0.0, 1.0]).tolist() == [1.0, 1.0]

    def test_tabulated_of_zero_mass_is_refused(self):
        with pytest.raises(InvalidArgument) as info:
            tabulated_density([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
        assert str(info.value) == (
            "tabulated density has mass 0.0 on [0, 1]; "
            "its values are rescaled to mass 1, so any positive mass is accepted"
        )

    def test_tabulated_rejects_negative_knots(self):
        with pytest.raises(ValueError):
            tabulated_density([(0.0, 1.0), (0.5, -0.2), (1.0, 1.0)])

    def test_construction_runs_no_quadrature(self, monkeypatch):
        # every constructor knows its mass in closed form
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        for module in (quadrature, transform):
            monkeypatch.setattr(module, "batched_quadrature", refuse)
        assert len(catalog_densities()) == 5
        with pytest.raises(InvalidArgument, match=r"^density has mass 1\.5 on \[0, 1\]; expected 1 within 1e-09$"):
            polynomial_density([1.0, 1.0])


def triangle_oracle(p, x):
    """The closed forms of the triangle with apex f(p) = 2: (pdf, CDF) at x."""
    if p > 0.0 and x <= p:
        return 2.0 * x / p, x * x / p
    return 2.0 * (1.0 - x) / (1.0 - p), 1.0 - (1.0 - x) ** 2 / (1.0 - p)


#: Peaks whose slope 2/p is finite; a subnormal peak below them is refused
#: by the PIT check (see ``test_subnormal_peak_is_refused``).
finite_slope_peaks = st.floats(min_value=0.0, max_value=1.0, exclude_min=True).filter(
    lambda p: math.isfinite(2.0 / p)
)


class TestTriangleOracle:
    """The triangle's table agrees with its closed forms to a few ulps of
    the apex 2 (pdf) and of 1 (CDF)."""

    def check(self, p, x):
        f = triangular_density(p)
        pdf, cdf = triangle_oracle(p, x)
        assert abs(f.values(x) - pdf) <= 8 * EPS
        assert abs(f.cdf(x) - cdf) <= 4 * EPS

    @given(finite_slope_peaks, st.floats(min_value=0.0, max_value=1.0))
    def test_random_peaks(self, p, x):
        self.check(p, x)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("x", [0.0, 1e-300, 0.1, 0.5, 0.9, 1.0 - 2**-53, 1.0])
    def test_peak_at_an_end(self, p, x):
        self.check(p, x)

    def test_subnormal_peak_is_refused(self):
        # 2/p overflows, so the table is inf strictly between 0 and p, as
        # for any table whose slope overflows
        with pytest.raises(NonFiniteValue):
            pit_identity_check(triangular_density(1e-310), reciprocal(), 1e-10)


class TestCdf:
    def test_uniform_cdf_is_identity(self):
        F = uniform_density().cdf
        xs = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(F(xs), xs)

    def test_polynomial_2x_cdf_is_x_squared(self):
        F = polynomial_density([0.0, 2.0]).cdf
        assert F(0.5) == pytest.approx(0.25, abs=1e-15)
        xs = np.linspace(0.0, 1.0, 101)
        assert np.allclose(F(xs), xs * xs, atol=1e-14)

    def test_triangular_cdf_symmetry_point(self):
        F = triangular_density(0.5).cdf
        assert F(0.5) == 0.5

    @pytest.mark.parametrize("f", catalog_densities(), ids=DENSITY_IDS)
    def test_cdf_endpoints_and_monotonicity(self, f):
        F = f.cdf
        grid = np.linspace(0.0, 1.0, 1001)
        vals = F(grid)
        assert abs(vals[0]) <= 1e-9 and abs(vals[-1] - 1.0) <= 1e-9
        assert (np.diff(vals) >= -1e-12).all()
        assert (vals >= 0.0).all() and (vals <= 1.0).all()


class TestPitIdentity:
    def test_uniform_density_reduces_to_plain_integral(self):
        rep = pit_identity_check(uniform_density(), reciprocal(), 1e-10)
        assert rep.passed and rep.residual <= 1e-10
        assert rep.rhs == pytest.approx(math.log(2.0), abs=1e-12)

    def test_2x_density_with_power_k2(self):
        rep = pit_identity_check(polynomial_density([0.0, 2.0]), power_complement(2), 1e-8)
        # hand integration: 2x(1 - x^4) integrates to 1 - 2/6 = 2/3
        assert rep.lhs == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert rep.rhs == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rep.passed

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.7, 6.0])
    def test_2x_density_rhs_is_k_over_k_plus_1(self, k):
        rep = pit_identity_check(polynomial_density([0.0, 2.0]), power_complement(k), 1e-8)
        assert rep.rhs == pytest.approx(k / (k + 1.0), abs=1e-10)
        assert rep.passed

    @pytest.mark.parametrize("f", catalog_densities(), ids=DENSITY_IDS)
    @pytest.mark.parametrize("g", catalog_functions(), ids=lambda g: g.kind)
    def test_residual_small_for_all_catalog_pairs(self, f, g):
        rep = pit_identity_check(f, g, 1e-8)
        assert rep.passed and rep.residual <= 1e-8

    def test_peak_at_a_breakpoint(self):
        # the peak is a breakpoint, and each piece must meet its share of tol
        # by its true error, not only by its estimate
        rep = pit_identity_check(triangular_density(0.698715381396206), trigonometric(), 1e-10)
        assert rep.passed and rep.residual <= 1e-15

    def test_kinks_of_g_under_f_are_panel_edges(self):
        # g(F(x)) bends where F(x) = 0.5; a kink that falls between a panel's
        # edge and its outermost node escapes both K15 and G7 (residual 2.7e-7
        # with the density's kinks alone)
        f, g = triangular_density(0.89), tabulated([(0.0, 1.2), (0.5, 0.3), (1.0, 0.1)])
        assert transform._preimages(f.cdf, g.kinks).tolist() == pytest.approx([math.sqrt(0.445)], abs=1e-15)
        rep = pit_identity_check(f, g, 1e-10)
        assert rep.passed and rep.residual <= 1e-15

    def test_report_wire_format(self):
        rep = pit_identity_check(uniform_density(), constant(1.0), 1e-8)
        d = rep.to_dict()
        assert list(d.keys()) == ["lhs", "rhs", "residual", "tol", "pass"]
        assert d["pass"] is True

    def test_default_tolerance_is_relative_to_max_abs_g_at_the_knots(self):
        # a table that rises and falls: its largest |g| is at an interior knot
        g = tabulated([(0.0, 0.5), (0.3, -4.0), (0.7, 3.0), (1.0, 1.0)])
        rep = pit_identity_check(triangular_density(0.4), g)
        assert rep.passed and rep.tol == 1e-8 * 4.0

    @pytest.mark.parametrize("c, bound", [(0.0, 1e-8 * 2.0**-1022), (5e-324, 1e-8 * 2.0**-1022), (-3e5, 3e-3)])
    def test_bound_of_a_constant(self, c, bound):
        rep = pit_identity_check(uniform_density(), constant(c), 1e-8)
        assert rep.passed and rep.tol == bound

    @pytest.mark.parametrize("c", [5e-324, 2.0**-1060, 1e-310])
    @pytest.mark.parametrize(
        "f",
        [uniform_density(), triangular_density(0.3), polynomial_density([0.5, 1.0])],
        ids=["uniform", "tri", "poly"],
    )
    def test_g_of_subnormal_scale_keeps_its_left_side(self, f, c):
        # every GK15 product w * f * g rounds to 0 unless g is lifted first
        rep = pit_identity_check(f, constant(c))
        assert rep.lhs != 0.0 and abs(rep.lhs - rep.rhs) <= 2 * math.ulp(rep.rhs)

    def test_g_not_finite_at_a_knot_is_refused_before_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(transform, "batched_quadrature", refuse)
        with pytest.raises(NonFiniteValue, match="a value of g at its knots"):
            pit_identity_check(uniform_density(), linear(1e308, 1e308))

    @pytest.mark.parametrize("k", [-900, -60, -1, 1, 60, 900])
    @pytest.mark.parametrize("f", catalog_densities(), ids=DENSITY_IDS)
    def test_scaling_g_by_a_power_of_two_scales_the_report_exactly(self, f, k):
        knots = [(0.0, 1.2), (0.5, 0.3), (0.8, -0.7), (1.0, 0.1)]
        for g, scaled in [
            (linear(-3.0, 2.0), linear(-3.0 * 2.0**k, 2.0 * 2.0**k)),
            (tabulated(knots), tabulated([(x, y * 2.0**k) for x, y in knots])),
        ]:
            rep, big = pit_identity_check(f, g), pit_identity_check(f, scaled)
            assert (big.lhs, big.rhs, big.residual, big.tol) == tuple(
                math.ldexp(v, k) for v in (rep.lhs, rep.rhs, rep.residual, rep.tol)
            )
            assert big.passed is rep.passed is True

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            pit_identity_check(uniform_density(), constant(1.0), 0.0)

    def test_infinite_tolerance(self):
        with pytest.raises(ValueError):
            pit_identity_check(uniform_density(), constant(1.0), math.inf)

    @pytest.mark.parametrize("tol", [1.0, 1e10])
    def test_relative_tolerance_of_one_or_more(self, tol):
        # 1e10 * 1e300 would overflow the bound
        with pytest.raises(ValueError, match="tol must lie in \\(0, 1\\)"):
            pit_identity_check(uniform_density(), constant(1e300), tol)


class TestEmpiricalPartition:
    """The empirical CDF's jumps: equal 1/n, or given weights normalized."""

    def test_uniform_weighting(self):
        assert uniform_weights(4).weights == (0.25,) * 4

    def test_given_weights_are_normalized(self):
        assert from_weights([2, 3, 5], normalize=True).weights == (0.2, 0.3, 0.5)

    def test_single_point(self):
        assert uniform_weights(1).weights == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument, match=r"^weight list must not be empty$"):
            from_weights([], normalize=True)


class TestExpectationBound:
    """T_n over an empirical partition is a plug-in estimate of E[g(U)] for
    uniform U, the integral of g, which bounds it for decreasing g."""

    def test_worked_example(self):
        r = bound_report(power_complement(2), cumulative(from_weights([2, 3, 5], normalize=True)))
        assert r.integral == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.t_n == pytest.approx(0.417, abs=1e-12)
        assert r.invariant_violations() == []

    def test_constant_attains_equality(self):
        r = bound_report(constant(2.0), cumulative(from_weights([1, 3], normalize=True)))
        assert r.integral == 2.0
        assert r.t_n == pytest.approx(2.0, abs=1e-14)
        assert r.invariant_violations() == []

    def test_exponential_uniform_10(self):
        r = bound_report(exponential(1), cumulative(uniform_weights(10)))
        assert r.integral == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        # brute-force check of the discrete sum
        brute = math.fsum(0.1 * math.exp(-(i + 1) / 10.0) for i in range(10))
        assert r.t_n == pytest.approx(brute, abs=1e-15)
        assert r.invariant_violations() == []

    def test_increasing_rejected(self):
        with pytest.raises(NonMonotoneFunction):
            refinement_chain(linear(1, 0), cumulative(uniform_weights(2)), 1)

    def test_non_monotone_rejected_with_witness(self):
        g = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        with pytest.raises(NonMonotoneFunction) as info:
            bound_report(g, cumulative(uniform_weights(2)))
        assert info.value.witness == (0.5, 1.0)
