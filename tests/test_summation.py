"""The vectorized sums against their scalar references.

``exact_sum`` against ``math.fsum`` (bit for bit, same exceptions), and
``compensated_prefix_sums`` against the Neumaier loop.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monobound import _summation
from monobound._summation import NeumaierSum, compensated_prefix_sums, exact_sum
from monobound.bounds import bound_report, riemann_sum_left
from monobound.functions import exponential, logarithmic, reciprocal
from monobound.partitions import cumulative, from_weights

# sign and mantissa times 10^e: magnitudes from about 1e-300 to 1e300, and
# at most 64 of them, so no prefix overflows
wide = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-300, max_value=299),
)
finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


def neumaier_prefixes(values):
    acc = NeumaierSum()
    out = [0.0]
    for v in values:
        acc.add(v)
        out.append(acc.value)
    return out


def assert_same_bits(values):
    got = compensated_prefix_sums(np.array(values, dtype=float))
    want = np.array(neumaier_prefixes(values))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestMatchesNeumaierLoop:
    @given(st.lists(st.one_of(wide, finite), min_size=1, max_size=64))
    def test_mixed_signs_and_magnitudes(self, values):
        assert_same_bits(values)

    @given(st.lists(wide, min_size=1, max_size=32), st.lists(wide, max_size=8))
    def test_cancellation_heavy(self, big, small):
        # every large addend is later cancelled exactly; the result lives in
        # the compensation term
        assert_same_bits(big + small + [-b for b in reversed(big)])

    @given(st.lists(wide, min_size=1, max_size=32))
    def test_alternating_cancellation(self, values):
        assert_same_bits([v for x in values for v in (x, -x * 0.999999)])

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_single_value(self, v):
        assert_same_bits([v])

    def test_signed_zeros(self):
        assert_same_bits([-0.0])
        assert_same_bits([-0.0, 0.0, -0.0, 1e-300, -1e-300])

    def test_result_starts_at_zero_and_is_writable(self):
        out = compensated_prefix_sums([0.25, 0.5])
        assert out.tolist() == [0.0, 0.25, 0.75]
        assert out.flags.writeable


CUTOFF = _summation._FSUM_CUTOFF
# both sides of the hand-off to fsum
sizes = st.sampled_from([1, 2, 100, CUTOFF - 1, CUTOFF, CUTOFF + 1, 3 * CUTOFF + 5])
subnormal = st.integers(min_value=-(2**20), max_value=2**20).map(lambda k: k * 5e-324)


def bits(x):
    return struct.pack("<d", x)


def tiled(pattern, size, seed=None):
    """``pattern`` repeated to ``size`` values (whole copies, in order, when
    ``seed`` is None; otherwise cut to size and shuffled)."""
    a = np.array(pattern, dtype=float)
    if seed is None:
        return np.tile(a, max(1, -(-size // a.size)))
    out = np.resize(a, size)
    np.random.default_rng(seed).shuffle(out)
    return out


def assert_matches_fsum(values):
    a = np.asarray(values, dtype=float)
    try:
        want = math.fsum(a.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_sum(a)
        return
    assert bits(exact_sum(a)) == bits(want)


class TestExactSumMatchesFsum:
    @given(st.lists(st.one_of(wide, finite), min_size=1, max_size=64), sizes, st.integers(0, 2**32))
    def test_mixed_signs_and_magnitudes(self, pattern, size, seed):
        assert_matches_fsum(tiled(pattern, size, seed))

    @given(st.lists(st.one_of(subnormal, wide), min_size=1, max_size=64), sizes, st.integers(0, 2**32))
    def test_subnormals(self, pattern, size, seed):
        assert_matches_fsum(tiled(pattern, size, seed))

    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=8),
           st.lists(wide, min_size=1, max_size=8), sizes)
    def test_large_pairs_cancel_around_small_terms(self, big, small, size):
        pattern = [v for b in big for v in (b * 1e200, *small, -b * 1e200)]
        assert_matches_fsum(tiled(pattern, size))

    @pytest.mark.parametrize("k", [1, 2, 3, CUTOFF - 1, CUTOFF, 2 * CUTOFF + 1])
    def test_one_plus_many_half_ulps(self, k):
        assert_matches_fsum([1.0] + [2.0**-53] * k)

    @pytest.mark.parametrize(
        "pattern",
        [
            [1.0, 2.0**-53],  # a tie: rounds to even, down
            [1.0 + 2.0**-52, 2.0**-53],  # a tie: rounds to even, up
            [2.0**-1022, -5e-324],  # largest subnormal
            [2.0**960 * (1.0 - 2.0**-53), -1.0],  # the largest exponent the kernel takes
            [2.0**960, -(2.0**960), 1.0],  # handed to fsum
            [1e300, 1e300, -1e300, -1e300, 1e-300],
        ],
    )
    def test_edges_above_the_cutoff(self, pattern):
        assert_matches_fsum(pattern + [0.0] * CUTOFF)
        assert_matches_fsum(tiled(pattern, CUTOFF + 1))

    @pytest.mark.parametrize("size", [1, CUTOFF - 1, CUTOFF, 3 * CUTOFF + 5])
    @pytest.mark.parametrize(
        "pattern", [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-5e-324, 5e-324]]
    )
    def test_signed_zeros_and_exact_zero_totals(self, pattern, size):
        assert_matches_fsum(tiled(pattern, size))

    @pytest.mark.parametrize(
        "pattern",
        [
            [math.inf],
            [-math.inf, 1.0],
            [math.nan, 1.0],
            [math.inf, -math.inf],  # ValueError
            [1e308, 1e308, -1e308],  # OverflowError: intermediate overflow
            [1e308, 1e308],  # OverflowError
        ],
    )
    @pytest.mark.parametrize("padding", [0, CUTOFF])
    def test_special_values_and_overflow(self, pattern, padding):
        assert_matches_fsum(pattern + [0.5] * padding)

    def test_empty(self):
        assert_matches_fsum([])

    @given(st.lists(st.one_of(wide, finite, subnormal), min_size=1, max_size=64), st.integers(0, 2**32))
    def test_many_chunks(self, pattern, seed):
        with mock.patch.object(_summation, "_CHUNK", 7):
            assert_matches_fsum(tiled(pattern, 3 * CUTOFF + 5, seed))


class TestCallSitesMatchFsum:
    """The library's one-shot sums equal the fsum formulas they replaced."""

    a = np.random.default_rng(20261018).lognormal(0.0, 2.0, 10**5)

    def test_normalized_weights(self):
        got = from_weights(self.a, normalize=True).array
        assert got.tobytes() == (self.a / math.fsum(self.a.tolist())).tobytes()

    @pytest.mark.parametrize("g", [reciprocal(), exponential(1.0), logarithmic()], ids=["recip", "exp", "log"])
    def test_right_abel_and_left_sums(self, g):
        p = cumulative(from_weights(self.a, normalize=True))
        bps = p.array
        widths = np.diff(bps)
        vals = g.values(bps[1:])
        report = bound_report(g, p)
        assert bits(report.t_n) == bits(math.fsum((widths * vals).tolist()))
        abel = (bps[1:-1] * (vals[:-1] - vals[1:])).tolist() + [float(vals[-1])]
        assert bits(report.abel_value) == bits(math.fsum(abel))
        left = (widths * g.values(bps[:-1])).tolist()
        assert bits(riemann_sum_left(g, p)) == bits(math.fsum(left))
