import math

import pytest
from scipy import integrate

from monobound.errors import ToleranceNotReached
from monobound.quadrature import adaptive_quadrature


class TestBasicIntegrals:
    def test_cubic_is_exact_for_simpson(self):
        r = adaptive_quadrature(lambda x: x**3, tol=1e-12)
        assert r.value == pytest.approx(0.25, abs=1e-13)

    def test_exponential(self):
        r = adaptive_quadrature(lambda x: math.exp(-x), tol=1e-10)
        assert r.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_general_interval(self):
        r = adaptive_quadrature(math.sin, a=0.0, b=math.pi, tol=1e-10)
        assert r.value == pytest.approx(2.0, abs=1e-10)

    def test_error_estimate_within_tolerance(self):
        r = adaptive_quadrature(lambda x: 1.0 / (1.0 + x), tol=1e-10)
        assert r.error_estimate <= 1e-10
        assert r.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_evaluations_are_counted(self):
        r = adaptive_quadrature(lambda x: x, tol=1e-8)
        assert r.evaluations > 0


class TestBreakpoints:
    def test_kink_split_gives_full_accuracy(self):
        c = 1.0 / 3.0
        # exact area of |x - c| over [0, 1] is (c^2 + (1-c)^2) / 2
        exact = (c * c + (1.0 - c) ** 2) / 2.0
        r = adaptive_quadrature(lambda x: abs(x - c), tol=1e-12, breakpoints=(c,))
        assert r.value == pytest.approx(exact, abs=1e-12)

    def test_breakpoints_outside_interval_ignored(self):
        r = adaptive_quadrature(lambda x: x, tol=1e-10, breakpoints=(-1.0, 2.0))
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_matches_external_quadrature(self):
        fn = lambda x: math.cos(math.pi * x / 2.0)
        mine = adaptive_quadrature(fn, tol=1e-11).value
        ref, _ = integrate.quad(fn, 0.0, 1.0, epsabs=1e-13)
        assert mine == pytest.approx(ref, abs=1e-10)


class TestFailureModes:
    def test_tolerance_not_reached_on_discontinuity(self):
        step = lambda x: 1.0 if x >= 0.37 else 0.0
        with pytest.raises(ToleranceNotReached) as info:
            adaptive_quadrature(step, tol=1e-18)
        assert info.value.achieved_error > 1e-18
        assert info.value.best_estimate == pytest.approx(0.63, abs=1e-8)

    def test_step_certifies_at_sane_tolerance(self):
        step = lambda x: 1.0 if x >= 0.37 else 0.0
        r = adaptive_quadrature(step, tol=1e-10)
        assert r.value == pytest.approx(0.63, abs=1e-10)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, tol=tol)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, a=1.0, b=1.0)

    def test_deterministic(self):
        fn = lambda x: math.exp(-2.0 * x)
        assert adaptive_quadrature(fn, tol=1e-10).value == adaptive_quadrature(fn, tol=1e-10).value
