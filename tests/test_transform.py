import math

import numpy as np
import pytest

from monobound import quadrature, transform
from monobound.errors import EmptyInput, LengthMismatch, NonMonotoneFunction, NotNormalized
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
from monobound.partitions import cumulative
from monobound.transform import (
    empirical_partition,
    expectation_upper_bound,
    pit_identity_check,
    polynomial_density,
    tabulated_density,
    triangular_density,
    uniform_density,
)


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
        with pytest.raises(NotNormalized):
            polynomial_density([1.0, 1.0])  # mass 1.5

    def test_polynomial_rejects_negative_values(self):
        with pytest.raises(ValueError):
            polynomial_density([-0.5, 3.0])  # f(0) < 0 despite unit mass

    def test_triangular_peak_validated(self):
        with pytest.raises(ValueError):
            triangular_density(1.5)

    def test_triangular_apex_value(self):
        assert triangular_density(0.5)(0.5) == 2.0
        assert triangular_density(0.0)(0.0) == 2.0
        assert triangular_density(1.0)(1.0) == 2.0

    def test_tabulated_renormalizes(self):
        f = tabulated_density([(0.0, 1.0), (1.0, 3.0)])  # trapezoid mass 2
        assert f(0.0) == pytest.approx(0.5, abs=1e-15)
        assert f(1.0) == pytest.approx(1.5, abs=1e-15)

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
        with pytest.raises(NotNormalized):
            polynomial_density([1.0, 1.0])


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

    @pytest.mark.parametrize("f", catalog_densities(), ids=lambda f: f.kind)
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

    @pytest.mark.parametrize("f", catalog_densities(), ids=lambda f: f.kind)
    @pytest.mark.parametrize("g", catalog_functions(), ids=lambda g: g.kind)
    def test_residual_small_for_all_catalog_pairs(self, f, g):
        rep = pit_identity_check(f, g, 1e-8)
        assert rep.passed and rep.residual <= 1e-8

    def test_report_wire_format(self):
        rep = pit_identity_check(uniform_density(), constant(1.0), 1e-8)
        d = rep.to_dict()
        assert list(d.keys()) == ["lhs", "rhs", "residual", "tol", "pass"]
        assert d["pass"] is True

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            pit_identity_check(uniform_density(), constant(1.0), 0.0)

    def test_infinite_tolerance(self):
        with pytest.raises(ValueError):
            pit_identity_check(uniform_density(), constant(1.0), math.inf)


class TestEmpiricalPartition:
    def test_uniform_weighting(self):
        w = empirical_partition([3.0, 1.0, 4.0, 1.0])
        assert w.weights == (0.25,) * 4

    def test_given_weights_are_normalized(self):
        w = empirical_partition([1.0, 2.0, 3.0], weights=[2, 3, 5])
        assert w.weights == (0.2, 0.3, 0.5)

    def test_single_point(self):
        assert empirical_partition([42.0]).weights == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            empirical_partition([])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            empirical_partition([1.0, 2.0], weights=[1.0])


class TestExpectationBound:
    def test_worked_example(self):
        w = empirical_partition([0.0] * 3, weights=[2, 3, 5])
        b = expectation_upper_bound(power_complement(2), w)
        assert b.expectation == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert b.discrete_sum == pytest.approx(0.417, abs=1e-12)
        assert b.holds

    def test_constant_attains_equality(self):
        w = empirical_partition([1.0, 2.0], weights=[1, 3])
        b = expectation_upper_bound(constant(2.0), w)
        assert b.expectation == 2.0
        assert b.discrete_sum == pytest.approx(2.0, abs=1e-14)
        assert b.holds

    def test_exponential_uniform_10(self):
        w = empirical_partition(list(range(10)))
        b = expectation_upper_bound(exponential(1), w)
        assert b.expectation == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        # brute-force check of the discrete sum
        brute = math.fsum(0.1 * math.exp(-(i + 1) / 10.0) for i in range(10))
        assert b.discrete_sum == pytest.approx(brute, abs=1e-15)
        assert b.holds

    def test_increasing_rejected(self):
        w = empirical_partition([1.0, 2.0])
        with pytest.raises(NonMonotoneFunction):
            expectation_upper_bound(linear(1, 0), w)

    def test_non_monotone_rejected_with_witness(self):
        g = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        with pytest.raises(NonMonotoneFunction) as info:
            expectation_upper_bound(g, empirical_partition([1.0, 2.0]))
        assert info.value.witness is not None
