import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from monobound import quadrature
from monobound.errors import NonFiniteValue, ToleranceNotReached
from monobound.quadrature import (
    _MAX_DEPTH,
    _MIN_DEPTH,
    QuadratureResult,
    _simpson,
    adaptive_quadrature,
    batched_quadrature,
)
from oracles import NeumaierSum


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


# --- the level-synchronous kernel against the depth-first stack loop ---------


def stack_loop_oracle(fn, a=0.0, b=1.0, tol=1e-10, breakpoints=()):
    """The depth-first stack loop the batched kernel replaced, one point per call."""
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(fn(x))

    edges = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    total = NeumaierSum()
    err_total = 0.0
    span = b - a
    for left, right in zip(edges[:-1], edges[1:]):
        panel_tol = tol * (right - left) / span
        fl, fr = f(left), f(right)
        m = 0.5 * (left + right)
        fm = f(m)
        stack = [(left, fl, right, fr, m, fm, _simpson(fl, fm, fr, right - left), panel_tol, 0)]
        while stack:
            x0, f0, x1, f1, xm, fmid, s_whole, loc_tol, depth = stack.pop()
            ml = 0.5 * (x0 + xm)
            mr = 0.5 * (xm + x1)
            fml, fmr = f(ml), f(mr)
            s_left = _simpson(f0, fml, fmid, xm - x0)
            s_right = _simpson(fmid, fmr, f1, x1 - xm)
            delta = (s_left + s_right) - s_whole
            if (abs(delta) <= 15.0 * loc_tol and depth >= _MIN_DEPTH) or depth >= _MAX_DEPTH:
                total.add(s_left + s_right + delta / 15.0)
                err_total += abs(delta) / 15.0
            else:
                stack.append((xm, fmid, x1, f1, mr, fmr, s_right, loc_tol / 2.0, depth + 1))
                stack.append((x0, f0, xm, fmid, ml, fml, s_left, loc_tol / 2.0, depth + 1))
    if err_total > tol:
        raise ToleranceNotReached(total.value, err_total)
    return QuadratureResult(value=total.value, error_estimate=err_total, evaluations=evals)


def outcome(integrate, fn, **kw):
    """Float bits and count of a result, or of the ToleranceNotReached it raised."""
    try:
        r = integrate(fn, **kw)
    except ToleranceNotReached as exc:
        return ("not reached", exc.best_estimate.hex(), exc.achieved_error.hex())
    return ("ok", r.value.hex(), r.error_estimate.hex(), r.evaluations)


def monotone_table(n, seed):
    """n knots on [0, 1], x jittered off the uniform grid, y decreasing."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n)
    xs[1:-1] += rng.uniform(-0.4, 0.4, n - 2) / (n - 1)
    ys = np.sort(rng.uniform(0.0, 2.0, n))[::-1].copy()
    return xs, ys


def table_case(n, seed, tol):
    xs, ys = monotone_table(n, seed)
    return (lambda x: np.interp(x, xs, ys)), dict(tol=tol, breakpoints=tuple(xs[1:-1].tolist()))


def step_array(c):
    return lambda x: np.where(np.asarray(x) >= c, 1.0, 0.0)


tolerances = st.floats(min_value=6.0, max_value=13.0).map(lambda e: 10.0**-e)


class TestBatchedMatchesStackLoop:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 5000), st.integers(0, 2**32 - 1), tolerances)
    @example(5000, 902, 1e-13)
    def test_monotone_tables(self, n, seed, tol):
        fv, kw = table_case(n, seed, tol)
        assert outcome(batched_quadrature, fv, **kw) == outcome(stack_loop_oracle, fv, **kw)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99), st.sampled_from([1e-18, 1e-14, 1e-10]))
    def test_step_function(self, c, tol):
        # tol=1e-18 cannot be met: every panel at the jump goes to _MAX_DEPTH
        assert outcome(batched_quadrature, step_array(c), tol=tol) == outcome(
            stack_loop_oracle, lambda x: 1.0 if x >= c else 0.0, tol=tol
        )

    def test_step_function_reaches_max_depth(self):
        got = outcome(batched_quadrature, step_array(0.37), tol=1e-18)
        assert got[0] == "not reached"
        assert got == outcome(stack_loop_oracle, lambda x: 1.0 if x >= 0.37 else 0.0, tol=1e-18)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=3.0),
        st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_subnormal=False), max_size=12),
        st.integers(0, 3),
        tolerances,
    )
    def test_breakpoints_outside_and_duplicated(self, a, length, points, copies, tol):
        b = a + length
        kinks = points + points[: copies] + [a, b, a - 1.0, b + 1.0]
        fv = lambda x: np.abs(np.sin(3.0 * x) - 0.2) + x * x
        kw = dict(a=a, b=b, tol=tol, breakpoints=kinks)
        assert outcome(batched_quadrature, fv, **kw) == outcome(stack_loop_oracle, fv, **kw)

    @pytest.mark.parametrize(
        "fn, kw",
        [
            (math.sin, dict(a=0.0, b=math.pi, tol=1e-10)),
            (lambda x: 1.0 if x >= 0.37 else 0.0, dict(tol=1e-18)),
            (lambda x: 1.0 if x >= 0.37 else 0.0, dict(tol=1e-10)),
            (lambda x: abs(x - 1.0 / 3.0), dict(tol=1e-12, breakpoints=(1.0 / 3.0, 1.0 / 3.0, -1.0, 2.0))),
            (lambda x: math.sqrt(x), dict(tol=1e-13)),
            (lambda x: x**3, dict(tol=1e-12)),
        ],
    )
    def test_scalar_callables_through_public_entry(self, fn, kw):
        assert outcome(adaptive_quadrature, fn, **kw) == outcome(stack_loop_oracle, fn, **kw)


# fv, keyword arguments; kept small so that 3-panel blocks stay quick
REFERENCE_CORPUS = [
    table_case(2, 1, 1e-10),
    table_case(300, 2, 1e-13),
    table_case(300, 3, 1e-6),
    (step_array(0.37), dict(tol=1e-18)),
    (step_array(0.37), dict(tol=1e-10)),
    (np.sin, dict(a=0.0, b=math.pi, tol=1e-12)),
    (np.sqrt, dict(tol=1e-13, breakpoints=(0.5, 0.5, -1.0, 2.0))),
    (lambda x: np.abs(x - 1.0 / 3.0), dict(tol=1e-12, breakpoints=(1.0 / 3.0,))),
]


class TestBlocks:
    @pytest.mark.parametrize("fv, kw", REFERENCE_CORPUS)
    def test_three_panel_blocks_give_the_same_bits(self, monkeypatch, fv, kw):
        whole = outcome(batched_quadrature, fv, **kw)
        monkeypatch.setattr(quadrature, "_BLOCK", 3)
        assert outcome(batched_quadrature, fv, **kw) == whole

    def test_memory_stays_near_the_accepted_panels(self):
        # 2^18 + 1 segments of a smooth integrand: every panel is split twice
        # and accepted at depth 2, so one level holds 4 * segments > 2^20
        # panels.  The kernel keeps three floats per accepted panel, plus a
        # few such arrays while ordering and summing them at the end; a level
        # held whole would need about ten times the store.
        segments = 2**18 + 1
        kinks = np.linspace(0.0, 1.0, segments + 1)[1:-1]
        tracemalloc.start()
        try:
            r = batched_quadrature(np.sin, tol=1e-10, breakpoints=kinks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.evaluations == 17 * segments  # 3 + 2 * (1 + 2 + 4) per segment
        accepted = 4 * segments
        assert accepted > 2**20
        assert peak < 4 * 3 * 8 * accepted
        assert r.value == pytest.approx(1.0 - math.cos(1.0), abs=1e-10)


class TestNonFinitePanels:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
    def test_refused_before_the_panels_multiply(self, value):
        # halving a panel cannot make its Simpson sums finite; splitting such
        # panels down to _MAX_DEPTH used to exhaust memory
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteValue, match="rescale the inputs"):
                batched_quadrature(lambda x: np.full_like(x, value))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_bad_panel_among_finite_ones(self):
        def fv(x):
            return np.where(x > 0.75, np.nan, x)

        with pytest.raises(NonFiniteValue):
            batched_quadrature(fv, breakpoints=(0.5, 0.75))
