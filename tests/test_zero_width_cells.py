"""Partitions with cells of zero width: S_(i-1) = S_i.

A weight below the running total's resolution, a breakpoint repeated by
hand, or the midpoint of an interval between adjacent floats makes such a
cell.  It adds nothing to T_n, the left sum, the Abel form or the gap, so
every invariant of a partition with strictly increasing breakpoints holds.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monobound import _summation, bounds
from monobound.bounds import (
    abel_sum,
    abel_terms,
    abel_violations,
    bound_report,
    refinement_chain,
    refinement_violations,
    riemann_sum_left,
)
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
from monobound.partitions import CumulativePartition, bisect_all, cumulative, from_weights

from oracles import bisected_chain

DECREASING_G = [power_complement(2), exponential(1), logarithmic(), reciprocal(), trigonometric(), linear(-2e6, 1e6)]
U = Fraction(2) ** -53


def weight_lists(max_size=60):
    """Weights of every size, and weights below half an ulp of any running total of the others."""
    return st.lists(
        st.one_of(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-30, max_value=1e-17)),
        min_size=1,
        max_size=max_size,
    )


mixed_weights = weight_lists()


@st.composite
def zero_width_partitions(draw, max_size=60):
    """Breakpoints of drawn weights, each repeated 1-4 times: runs of zero-width cells,
    also at S_0 and as the last cell."""
    bps = cumulative(from_weights(draw(weight_lists(max_size)), normalize=True)).array.tolist()
    repeats = draw(st.lists(st.integers(0, 3), min_size=len(bps), max_size=len(bps)))
    return CumulativePartition([b for b, r in zip(bps, repeats) for _ in range(r + 1)])


def assert_invariants(g, p):
    report = bound_report(g, p)
    assert report.invariant_violations(riemann_sum_left(g, p)) == []
    assert abel_violations(report.direction, report.t_n, abel_sum(g, p), abel_terms(g, p), report.scale) == []
    assert refinement_violations(refinement_chain(g, p, 3)) == []


@pytest.mark.parametrize("chunk", [7, _summation._CHUNK], ids=["7-blocks", "one-block"])
@settings(max_examples=40, deadline=None)
@given(p=zero_width_partitions(), g=st.sampled_from(DECREASING_G))
def test_invariants_hold(chunk, p, g):
    # with 7-value blocks and no fsum cutoff, zero-width cells fall on block edges of every sum
    with mock.patch.object(_summation, "_CHUNK", chunk), mock.patch.object(_summation, "_FSUM_CUTOFF", 0):
        assert_invariants(g, p)


@pytest.mark.parametrize("chunk", [7, _summation._CHUNK], ids=["7-blocks", "one-block"])
@settings(max_examples=40, deadline=None)
@given(raw=mixed_weights, g=st.sampled_from(DECREASING_G))
def test_cumulative_keeps_lost_weights_as_zero_width_cells(chunk, raw, g):
    with mock.patch.object(_summation, "_CHUNK", chunk), mock.patch.object(_summation, "_FSUM_CUTOFF", 0):
        p = cumulative(from_weights(raw, normalize=True))
        assert p.array[0] == 0.0 and p.array[-1] == 1.0
        assert (np.diff(p.array) >= 0.0).all()
        assert_invariants(g, p)


@pytest.mark.parametrize("sigma", [4, 6, 8])
@pytest.mark.parametrize("n", [100, 10**4])
def test_heavy_tailed_weights_are_not_refused(n, sigma):
    # normalized log-normal weights: at sigma = 8 and n = 100, 14 of these 20 draws were once refused
    for seed in range(20):
        raw = np.random.default_rng(seed).lognormal(0.0, sigma, n)
        p = cumulative(from_weights(raw, normalize=True))
        report = bound_report(reciprocal(), p)
        assert report.invariant_violations(riemann_sum_left(reciprocal(), p)) == []


def test_prefix_sums_above_one_are_clamped():
    # a_n = 3.1e-19 is lost: before the snap S_(n-1) = S_n = 1 + 2**-52, so
    # snapping S_n alone would leave a decreasing pair
    w = from_weights(np.random.default_rng(8000).lognormal(0.0, 8.0, 10**6), normalize=True)
    p = cumulative(w)
    assert p.array[-2:].tolist() == [1.0, 1.0]
    assert (np.diff(p.array) >= 0.0).all()
    for g in (reciprocal(), linear(-1.0, 1.0)):
        assert bound_report(g, p).invariant_violations(riemann_sum_left(g, p)) == []


@settings(max_examples=60, deadline=None)
@given(
    raw=mixed_weights,
    m=st.floats(min_value=-1e6, max_value=1e6),
    b=st.floats(min_value=-1e6, max_value=1e6),
)
def test_t_n_is_within_its_a_priori_bound_of_the_exact_sum(raw, m, b):
    # the user's T_n = sum a_i g(S_i) with exact S_i, against
    # 2 (|m| + 4M + 1)(n + 64) u, the a priori form of the benchmark's tolerance
    w = from_weights(raw, normalize=True)
    t_n = bound_report(linear(m, b), cumulative(w)).t_n
    exact, s = Fraction(0), Fraction(0)
    for a in w.array.tolist():
        s += Fraction(a)
        exact += Fraction(a) * (Fraction(m) * s + Fraction(b))
    scale = max(abs(b), abs(m + b))
    assert abs(Fraction(t_n) - exact) <= 2 * (Fraction(abs(m)) + 4 * Fraction(scale) + 1) * (w.n + 64) * U


@st.composite
def close_ends(draw):
    """0 <= a <= b <= 1: equal, adjacent or two floats apart, or any b; a subnormal or any a."""
    a = draw(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**20).map(lambda k: k * 5e-324)))
    after = float(np.nextafter(a, 1.0))
    return a, draw(st.sampled_from([a, after, float(np.nextafter(after, 1.0))]) | st.floats(a, 1.0))


@given(close_ends())
def test_midpoints_lie_in_their_intervals(ends):
    q = bisect_all(CumulativePartition([0.0, *ends, 1.0])).array
    mids, ends = q[1::2], q[0::2]
    assert (ends[:-1] <= mids).all() and (mids <= ends[1:]).all()


def test_deep_chain_over_adjacent_floats():
    p = CumulativePartition([0.0, 0.5, float(np.nextafter(0.5, 1.0)), 1.0])
    assert refinement_violations(refinement_chain(reciprocal(), p, 20)) == []


#: Decreasing g of every kind, a table, and a constant at the bottom of the range.
CHAIN_G = [
    *DECREASING_G,
    power_complement(0.5),
    tabulated([(0.0, 5.0), (0.3, 2.0), (0.7, 1.5), (1.0, 0.0)]),
    constant(1e-300),
]


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("chunk, sub", [(7, 3), (_summation._CHUNK, bounds._SUB)], ids=["7-blocks", "default-blocks"])
@settings(max_examples=40, deadline=None)
@given(p=zero_width_partitions(20), depth=st.integers(1, 6), g=st.sampled_from(CHAIN_G))
def test_streamed_chain_matches_full_bisection(chunk, sub, p, depth, g):
    # refinement_chain bisects a block at a time from the base breakpoints; with 7-value
    # blocks formed 3 cells at a time, pieces start mid-interval and span base intervals,
    # the last block is short, and no sum goes to fsum before the blocked path
    patches = (
        mock.patch.object(_summation, "_CHUNK", chunk),
        mock.patch.object(_summation, "_FSUM_CUTOFF", 0),
        mock.patch.object(bounds, "_SUB", sub),
    )
    with patches[0], patches[1], patches[2]:
        assert hexes(refinement_chain(g, p, depth)) == hexes(bisected_chain(g, p, depth))


@settings(max_examples=12, deadline=None)
@given(raw=weight_lists(3), depth=st.integers(1, 20), g=st.sampled_from(CHAIN_G))
@example(raw=[1.0], depth=20, g=reciprocal())
@example(raw=[0.25, 0.25, 0.5], depth=14, g=exponential(1.0))
def test_deep_streamed_chain_matches_full_bisection(raw, depth, g):
    # past depth 15 a block of 2**15 cells lies inside one base interval; 3 * 2**14 cells end in a short block
    p = cumulative(from_weights(raw, normalize=True))
    with mock.patch.object(_summation, "_FSUM_CUTOFF", 0):
        assert hexes(refinement_chain(g, p, depth)) == hexes(bisected_chain(g, p, depth))
