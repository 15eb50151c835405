import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from monobound import quadrature
from monobound.errors import NonFiniteValue, ToleranceNotReached
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
from monobound.quadrature import (
    _G7,
    _K15,
    _MAX_DEPTH,
    _NODES,
    QuadratureResult,
    _gk15,
    adaptive_quadrature,
    batched_quadrature,
)
from monobound.transform import (
    _preimages,
    polynomial_density,
    tabulated_density,
    triangular_density,
    uniform_density,
)


class TestBasicIntegrals:
    @pytest.mark.parametrize("degree", [3, 13])
    def test_polynomials_to_degree_13_take_one_panel(self, degree):
        # K15 and G7 both integrate them, so |K15 - G7| is at rounding level
        r = adaptive_quadrature(lambda x: x**degree, tol=1e-12)
        assert r.evaluations == 15
        assert r.value == pytest.approx(1.0 / (degree + 1), abs=1e-15)

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


# --- the G7/K15 rule ----------------------------------------------------------


def nodes(x0, x1):
    """The K15 nodes of the panel [x0, x1], computed as the kernel does."""
    return (0.5 * (x0 + x1) + 0.5 * (x1 - x0) * _NODES[:, 0]).tolist()


# QUADPACK's qk15 tables to 33 digits (Piessens et al., 1983), as also
# written in scipy/integrate/_quad_vec.py: the K15 nodes from 1 down to 0,
# their K15 weights, and the G7 weights of the nodes 2, 4, 6 and 8 of them.
XGK = ("0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
       "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
       "0.586087235467691130294144838258730", "0.405845151377397166906606412076961",
       "0.207784955007898467600689403773245", "0.000000000000000000000000000000000")
WGK = ("0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
       "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
       "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
       "0.204432940075298892414161999234649", "0.209482141084727828012999174891714")
WG = ("0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
      "0.381830050505118944950369775488975", "0.417959183673469387755102040816327")


def symmetric(half, sign=1):
    """The full table on [-1, 1] from its entries for the nodes 1 down to 0."""
    values = [float(v) for v in half]
    return [sign * v for v in values] + values[-2::-1]


def rule_error(nodes, weights, degree):
    """sum_j w_j x_j^degree - integral of x^degree over [-1, 1], in exact arithmetic."""
    got = sum(Fraction(w) * Fraction(x) ** degree for x, w in zip(nodes, weights))
    return got - (Fraction(2, degree + 1) if degree % 2 == 0 else 0)


class TestRule:
    def test_constants_are_quadpacks_rounded(self):
        assert _NODES[:, 0].tolist() == symmetric(XGK, sign=-1)
        assert list(_K15) == symmetric(WGK)
        assert list(_G7) == symmetric(WG)

    def test_nodes_are_symmetric_and_interior(self):
        x = _NODES[:, 0]
        assert (x == -x[::-1]).all() and x[7] == 0.0
        assert -1.0 < x[0] and x[-1] < 1.0

    @pytest.mark.parametrize("rule, exact_to, first_miss", [("K15", 22, 24), ("G7", 13, 14)])
    def test_degree(self, rule, exact_to, first_miss):
        # odd powers cancel exactly on the symmetric nodes; the first even
        # power past the rule's degree is missed by far more than rounding
        x, w = (_NODES[:, 0], _K15) if rule == "K15" else (_NODES[1::2, 0], _G7)
        for degree in range(exact_to + 1):
            # exact up to the rounding of the 16-digit constants
            assert abs(rule_error(x.tolist(), w, degree)) < 1e-15, degree
        assert abs(rule_error(x.tolist(), w, first_miss)) > 1e-9

    def test_one_panel_matches_the_tables(self):
        fn = lambda x: math.exp(-3.0 * x) * math.cos(5.0 * x)
        x0, x1 = 0.25, 1.75
        fx = [fn(x) for x in nodes(x0, x1)]
        value, err, floor = _gk15(np.array(fx), x0, x1)
        half = 0.5 * (x1 - x0)
        kronrod = math.fsum(w * f for w, f in zip(symmetric(WGK), fx))
        gauss = math.fsum(w * f for w, f in zip(symmetric(WG), fx[1::2]))
        absolute = math.fsum(w * abs(f) for w, f in zip(symmetric(WGK), fx))
        assert value == pytest.approx(half * kronrod, rel=1e-14)
        assert err == pytest.approx(half * abs(kronrod - gauss), rel=1e-12)
        assert floor == pytest.approx(half * 50 * 2.0**-52 * absolute, rel=1e-14)
        assert err > floor  # a wide panel: |K15 - G7| is far above rounding


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


def peak_memory(call):
    """Peak traced allocation while ``call`` runs, and what it returned or raised."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except (NonFiniteValue, ToleranceNotReached) as exc:
            outcome = exc
        return tracemalloc.get_traced_memory()[1], outcome
    finally:
        tracemalloc.stop()


class TestFailureModes:
    def test_tolerance_not_reached_on_discontinuity(self):
        step = lambda x: 1.0 if x >= 0.37 else 0.0
        peak, exc = peak_memory(lambda: adaptive_quadrature(step, tol=1e-18))
        assert isinstance(exc, ToleranceNotReached)
        assert exc.achieved_error > 1e-18
        assert exc.best_estimate == pytest.approx(0.63, abs=1e-8)
        assert peak < 2**20

    @pytest.mark.parametrize(
        "fv, kw",
        [
            (np.sin, dict(a=0.0, b=math.pi, tol=1e-20)),
            (lambda x: x**3, dict(tol=1e-18)),
            (np.exp, dict(tol=1e-15, breakpoints=np.linspace(0.0, 1.0, 1001)[1:-1])),
        ],
        ids=["sin", "cubic", "exp-1000-segments"],
    )
    def test_tolerance_below_rounding(self, fv, kw):
        # |K15 - G7| cannot fall below float64 rounding; a panel that reaches
        # it is accepted with an estimate at rounding level, instead of being
        # split down to _MAX_DEPTH
        peak, exc = peak_memory(lambda: batched_quadrature(fv, **kw))
        assert isinstance(exc, ToleranceNotReached)
        assert kw["tol"] < exc.achieved_error < 1e-13
        assert peak < 2**20

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


# --- the level-synchronous kernel against a depth-first stack loop ----------


def stack_loop_oracle(fn, a=0.0, b=1.0, tol=1e-10, breakpoints=()):
    """Depth-first G7/K15 over one panel at a time, one point per call of ``fn``;
    the totals are math.fsum's of the accepted panels, in the order accepted."""
    evals = 0
    edges = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    values, errs = [], []
    span = b - a
    for left, right in zip(edges[:-1], edges[1:]):
        stack = [(left, right, tol * (right - left) / span, 0)]
        while stack:
            x0, x1, loc_tol, depth = stack.pop()
            fx = np.array([float(fn(x)) for x in nodes(x0, x1)])
            evals += fx.size
            value, err, floor = _gk15(fx, x0, x1)
            if not math.isfinite(err):
                raise NonFiniteValue("a quadrature sum of the integrand")
            if err <= loc_tol or err <= floor or depth >= _MAX_DEPTH:
                values.append(float(value))
                errs.append(float(err))
            else:
                xm = 0.5 * (x0 + x1)
                stack.append((xm, x1, loc_tol / 2.0, depth + 1))
                stack.append((x0, xm, loc_tol / 2.0, depth + 1))
    total, err_total = math.fsum(values), math.fsum(errs)
    if err_total > tol:
        raise ToleranceNotReached(total, err_total)
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evals)


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
        # the panel at the jump goes to _MAX_DEPTH at every tol; 1e-18 cannot be met
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
        # 2^20 + 1 segments of a smooth integrand: every panel is accepted
        # at once, so the first level holds more than 2^20 panels.  The
        # kernel keeps three floats per panel of that level and two per
        # accepted panel, plus a few such arrays while summing them at the
        # end; evaluating the level whole would take 15 nodes and 15
        # values, 240 bytes, per panel.
        segments = 2**20 + 1
        kinks = np.linspace(0.0, 1.0, segments + 1)[1:-1]
        peak, r = peak_memory(lambda: batched_quadrature(np.sin, tol=1e-10, breakpoints=kinks))
        assert r.evaluations == 15 * segments
        assert peak < 4 * 3 * 8 * segments
        assert r.value == pytest.approx(1.0 - math.cos(1.0), abs=1e-10)


class TestNonFinitePanels:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
    def test_refused_before_the_panels_multiply(self, value):
        # halving a panel cannot make its sums finite; splitting such panels
        # down to _MAX_DEPTH would exhaust memory
        peak, exc = peak_memory(lambda: batched_quadrature(lambda x: np.full_like(x, value)))
        assert isinstance(exc, NonFiniteValue)
        assert "rescale the inputs" in str(exc)
        assert peak < 2**20

    def test_finite_panels_whose_total_overflows(self):
        # each panel's value, 0.8e308, is finite; their exact total is not
        with pytest.raises(NonFiniteValue):
            batched_quadrature(lambda x: np.full_like(x, 0.8e308), a=0.0, b=3.0, breakpoints=(1.0, 2.0))

    def test_one_bad_panel_among_finite_ones(self):
        def fv(x):
            return np.where(x > 0.75, np.nan, x)

        with pytest.raises(NonFiniteValue):
            batched_quadrature(fv, breakpoints=(0.5, 0.75))


# --- the error claim against an independent reference ------------------------

CATALOG = [
    power_complement(2),
    exponential(1),
    logarithmic(),
    reciprocal(),
    trigonometric(),
    constant(1.0),
    linear(-1.0, 1.0),
]


def reference(fv, breakpoints):
    """mpmath's tanh-sinh integral of the float integrand, split at the breakpoints."""
    pts = sorted({0.0, 1.0, *(p for p in breakpoints if 0.0 < p < 1.0)})
    with mpmath.workdps(25):
        return mpmath.quad(lambda x: float(fv(np.array([float(x)]))[0]), pts)


@st.composite
def table_knots(draw, max_knots):
    n = draw(st.integers(2, max_knots))
    xs, ys = monotone_table(n, draw(st.integers(0, 2**32 - 1)))
    return list(zip(xs.tolist(), ys.tolist()))


functions = st.one_of(st.sampled_from(CATALOG), table_knots(30).map(tabulated))
densities = st.one_of(
    st.just(uniform_density()),
    st.just(polynomial_density([0.5, 1.0])),
    # a peak whose slope 2/p overflows gives an integrand that is inf strictly
    # between 0 and p, which the kernel refuses (TestNonFinitePanels)
    st.floats(min_value=0.0, max_value=1.0)
    .filter(lambda p: p == 0.0 or math.isfinite(2.0 / p))
    .map(triangular_density),
    table_knots(12).map(tabulated_density),
)


class TestErrorClaim:
    """The claimed error_estimate is at least the true error."""

    @settings(max_examples=25, deadline=None)
    @given(table_knots(60).map(tabulated), tolerances)
    def test_tables(self, g, tol):
        r = batched_quadrature(g._fn, tol=tol, breakpoints=g.kinks)
        assert abs(mpmath.mpf(r.value) - reference(g._fn, g.kinks)) <= r.error_estimate

    @settings(max_examples=25, deadline=None)
    @given(densities, functions, tolerances)
    @example(triangular_density(0.698715381396206), trigonometric(), 5e-11)
    @example(triangular_density(5e-324), reciprocal(), 1e-10)
    def test_pit_integrands(self, f, g, tol):
        fv = lambda x: f._fn(x) * g._fn(f.cdf(x))
        breakpoints = f.kinks + tuple(_preimages(f.cdf, g.kinks).tolist())
        r = batched_quadrature(fv, tol=tol, breakpoints=breakpoints)
        assert abs(mpmath.mpf(r.value) - reference(fv, breakpoints)) <= r.error_estimate
