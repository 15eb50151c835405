"""The vectorized compensated prefix sum against the scalar Neumaier loop."""

import numpy as np
from hypothesis import given, strategies as st

from monobound._summation import NeumaierSum, compensated_prefix_sums

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
