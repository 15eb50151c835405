"""The vectorized sums against their scalar references.

``exact_sum`` against ``math.fsum`` (bit for bit, same exceptions), and
``compensated_prefix_sums`` against the Neumaier loop.
"""

import contextlib
import gc
import math
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monobound import _summation, bounds
from monobound._summation import compensated_prefix_sums, exact_sum
from monobound.bounds import abel_sum, bound_report, riemann_sum_left, riemann_sum_right
from monobound.functions import exponential, logarithmic, reciprocal
from monobound.partitions import cumulative, from_weights
from oracles import neumaier_prefixes

# Large block sizes: a fixed 2**16 and the default, if it differs, so that
# case names do not move when the default is retuned
LARGE_CHUNKS = tuple(dict.fromkeys((1 << 16, _summation._CHUNK)))

# sign and mantissa times 10^e: magnitudes from about 1e-300 to 1e300, and
# at most 64 of them, so no prefix overflows
wide = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-300, max_value=299),
)
finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


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

    def test_empty(self):
        assert compensated_prefix_sums([]).tolist() == [0.0]

    @given(st.lists(st.one_of(wide, finite), min_size=1, max_size=64))
    def test_many_chunks(self, values):
        with mock.patch.object(_summation, "_CHUNK", 7):
            assert_same_bits(values)

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 13, 14, 15, 50])
    @given(data=st.data())
    def test_sizes_at_block_edges(self, n, data):
        # each 7-value block seeds both cumsums with the carries of the last
        values = data.draw(st.lists(st.one_of(wide, finite), min_size=n, max_size=n))
        with mock.patch.object(_summation, "_CHUNK", 7):
            assert_same_bits(values)

    @pytest.mark.parametrize("n, chunk", [(10**5, 2**10), (10**6, _summation._CHUNK)])
    def test_memory_is_the_result_plus_one_block(self, n, chunk):
        values = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        with mock.patch.object(_summation, "_CHUNK", chunk):
            # tracemalloc counts an object parked on an interpreter free list
            # as live, and how full those lists are depends on earlier tests
            # (a full collection empties them): one untraced call fills them,
            # and no collection runs until the traced call is done
            gc.disable()
            compensated_prefix_sums(values)
            tracemalloc.start()
            try:
                out = compensated_prefix_sums(values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()
        assert out.size == n + 1
        # the result, an error and a TwoSum buffer of one block each, and a
        # few small objects
        assert peak <= (n + 1) * 8 + 2 * (chunk + 1) * 8 + 4096

    @pytest.mark.parametrize("chunk", [7, *LARGE_CHUNKS])
    @pytest.mark.parametrize(
        "head", [[1e308, 1e308], [-1e308, -1e308, -1e308], [1.7e308, 1e-300, 1.7e308]]
    )
    def test_overflow_raises_under_errstate(self, head, chunk):
        # is_majorized turns this FloatingPointError into SumOverflow; the
        # overflow sits in the first block or, with 7-value blocks, a later one
        values = [0.5] * 20 + head
        with mock.patch.object(_summation, "_CHUNK", chunk):
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(FloatingPointError):
                    compensated_prefix_sums(values)


CUTOFF = _summation._FSUM_CUTOFF
# a fixed size a few cutoffs up: the kernel's k = (n + 2).bit_length() steps
# from 11 to 12 just below it, and the cases keep their ids if CUTOFF moves
LARGE = 2048
# a fixed size between the cutoff and LARGE: its cases keep their ids
# whatever CUTOFF is, and dict.fromkeys drops a size CUTOFF gives too
MID = 512
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

    @pytest.mark.parametrize(
        "k",
        [1, 2, 3, *dict.fromkeys((CUTOFF - 1, CUTOFF, 2 * CUTOFF + 1, MID - 1, MID, 2 * MID + 1)),
         LARGE - 1, LARGE, 2 * LARGE + 1],
    )
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

    @pytest.mark.parametrize(
        "size",
        [1, *dict.fromkeys((CUTOFF - 1, CUTOFF, 3 * CUTOFF + 5, MID - 1, MID, 3 * MID + 5)),
         LARGE - 1, LARGE, 3 * LARGE + 5],
    )
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
    @pytest.mark.parametrize("padding", [0, *dict.fromkeys((CUTOFF, MID)), LARGE])
    def test_special_values_and_overflow(self, pattern, padding):
        assert_matches_fsum(pattern + [0.5] * padding)

    def test_empty(self):
        assert_matches_fsum([])

    @given(st.lists(st.one_of(wide, finite, subnormal), min_size=1, max_size=64), st.integers(0, 2**32))
    def test_many_chunks(self, pattern, seed):
        with mock.patch.object(_summation, "_CHUNK", 7):
            assert_matches_fsum(tiled(pattern, 3 * CUTOFF + 5, seed))


def midpoint_case(seed, scale, offset):
    """1004 values whose exact sum is a rounding midpoint plus ``offset``.

    1.0 fixes the largest magnitude, so with n = 1004 (k = 10) the
    extraction constants are s1 = 2**11 and s2 = 2**-32.  Next come 1000
    random 53-bit values of size ``scale``, whose plain float sum rounds at
    every step: at 2**-43 they are first-round remainders just below their
    bound 2**-42 and their high parts fill the second round's binades; at
    2**-87 they pass both rounds untouched and fill the remainders' plain
    sum.  Last comes the correction that puts the exact total on the
    midpoint between the two floats next to 1, split into floats whose low
    bits a plain sum loses too.
    """
    rng = np.random.default_rng(seed)
    rho = rng.uniform(1.0, 2.0, 1000) * scale
    exact = 1 + sum(map(Fraction, rho.tolist()))
    ulp = Fraction(2) ** -52
    midpoint = 1 + (math.floor((exact - 1) / ulp) + Fraction(1, 2)) * ulp
    fix = midpoint - exact + offset - Fraction(2) ** -150
    c1 = float(fix)
    c2 = float(fix - Fraction(c1))
    assert Fraction(c1) + Fraction(c2) == fix
    values = np.concatenate(([1.0], rho, [c1, c2, 2.0**-150]))
    rng.shuffle(values)
    assert sum(map(Fraction, values.tolist())) == midpoint + offset
    assert Fraction(float(np.sum(rho))) != exact - 1  # the plain sum rounds
    return values


def fsum_list_calls():
    """Spy on math.fsum: lengths of the lists (not tuples) it is given."""
    calls = []
    real = math.fsum

    def spy(xs):
        if isinstance(xs, list):
            calls.append(len(xs))
        return real(xs)

    return calls, mock.patch.object(_summation.math, "fsum", spy)


@contextlib.contextmanager
def counted_passes():
    """Spy on the blocked core: the passes over its values each sum makes.

    A pass is one ``produce`` call per block, so a sum of at least CUTOFF
    values makes 1 pass when one extraction round decides, 2 when two
    rounds do, and 3 when fsum does.
    """
    passes = []
    real = _summation._blocked_sum

    def spy(n, produce):
        calls = 0

        def counted(start, stop, out):
            nonlocal calls
            calls += 1
            return produce(start, stop, out)

        total = real(n, counted)
        if n >= CUTOFF:
            passes.append(calls / -(-n // _summation._CHUNK))
        return total

    with mock.patch.object(_summation, "_blocked_sum", spy), mock.patch.object(bounds, "_blocked_sum", spy):
        yield passes


class TestCertificate:
    """Cases built so that a wrong extraction or error bound gives a wrong bit.

    Random data almost never lies close enough to a rounding midpoint to
    tell a correct certificate from a broken one, so these sit on one, or
    2**-110 or 2**-140 (relative) to either side, or fill every binade the
    extraction constants allow.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sign", [-1, 0, 1], ids=["below", "on", "above"])
    @pytest.mark.parametrize("scale, off", [(2.0**-43, 2**-110), (2.0**-87, 2**-140)], ids=["round2", "rest"])
    @pytest.mark.parametrize("chunk", [_summation._CHUNK, 7], ids=["one-block", "7-blocks"])
    def test_near_a_rounding_midpoint(self, seed, sign, scale, off, chunk):
        # ``off`` from the midpoint lies inside the plain sums' rounding
        # errors, and outside (2**-110) or inside (2**-140) the certificate's
        # bound 2**-117.  7-value blocks add the block sums one after
        # another, so the remainders' plain sum rounds at the size of its total
        values = midpoint_case(seed, scale, sign * Fraction(off))
        assert values.size >= CUTOFF
        with mock.patch.object(_summation, "_CHUNK", chunk):
            assert_matches_fsum(values)
            assert_matches_fsum(-values)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_a_midpoint_the_fast_path_decides(self, seed):
        # 2**-110 off a midpoint is far outside the error bound 2**-117 at
        # this n, so the certificate decides without fsum
        calls, spy = fsum_list_calls()
        with spy:
            assert_matches_fsum(midpoint_case(seed, 2.0**-43, Fraction(2) ** -110))
        assert calls == [1004]  # only the reference's own call

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sign", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize(
        "off, passes", [(2**-60, 1), (2**-110, 2), (2**-145, 3)], ids=["round-one", "round-two", "fsum"]
    )
    @pytest.mark.parametrize("chunk", [_summation._CHUNK, 7], ids=["one-block", "7-blocks"])
    def test_the_pass_that_decides(self, seed, sign, off, passes, chunk):
        # one round's bound is 2**-74 for one block (e = 1, k = 10) and
        # about 2**-92 for 7-value blocks (k = 4), two rounds' 2**-117 and
        # 2**-141: 2**-60 off a midpoint lies outside both, 2**-110 between
        # them and 2**-145 inside both
        values = midpoint_case(seed, 2.0**-43, sign * Fraction(off))
        with mock.patch.object(_summation, "_CHUNK", chunk):
            for v in (values, -values):
                with counted_passes() as counted:
                    assert_matches_fsum(v)
                assert counted == [passes]

    @pytest.mark.parametrize(
        "j, chunk",
        [(j, c) for c in LARGE_CHUNKS for j in (10, 12, 17)] + [(10, 7), (12, 7)],
    )
    @pytest.mark.parametrize("minus", [3, 2, 1])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_sizes_at_the_edges_of_k(self, j, chunk, minus, sign):
        # n = 2**j - 3 is the largest n for k = j.  With every value near M
        # and of one sign, the high parts' partial sums come within a
        # factor 2 of s1; for negative values the high parts' unit is half
        # as large, so their sums fill every bit that exactness allows.
        # 7-value blocks add up the block sums in order, so most partial
        # sums are that large
        n = 2**j - minus
        rng = np.random.default_rng(n)
        values = sign * rng.uniform(1.0, 2.0, n)
        values[0] = sign * (2.0 - 2.0**-52)
        with mock.patch.object(_summation, "_CHUNK", chunk):
            assert_matches_fsum(values)
            assert_matches_fsum(values * 2.0**-700)

    @pytest.mark.parametrize(
        "top", [2.0**-800, 2.0**-800 * (1 - 2.0**-53), 2.0**-800 * (1 + 2.0**-52), 2.0**-1000]
    )
    def test_largest_magnitude_near_the_lower_limit(self, top):
        rng = np.random.default_rng(800)
        values = rng.uniform(-1.0, 1.0, 3 * CUTOFF) * top
        values[7] = top
        assert_matches_fsum(values)
        assert_matches_fsum(np.append(values, [5e-324] * 3))

    @pytest.mark.parametrize(
        "top", [2.0**959, 2.0**960 * (1 - 2.0**-53), 2.0**960, 1.7e308]
    )
    def test_largest_magnitude_near_the_upper_limit(self, top):
        rng = np.random.default_rng(960)
        values = rng.uniform(0.0, 1.0, 3 * CUTOFF) * top
        values[7] = top
        assert_matches_fsum(values * rng.choice([-1.0, 1.0], values.size))
        assert_matches_fsum(np.append(values, [-top, 1.0]))

    @pytest.mark.parametrize("kind", ["near_uniform", "lognormal", "geometric"])
    def test_fast_path_decides_realistic_weights(self, kind):
        # the three weight shapes of the bound-large benchmark, and the sums
        # a certification makes of them; none may fall back to a second
        # pass or to fsum
        rng = np.random.default_rng(20261018)
        n = 10**5
        if kind == "near_uniform":
            a = rng.uniform(0.9, 1.1, n)
        elif kind == "lognormal":
            a = rng.lognormal(0.0, 2.0, n)
        else:
            a = (10.0 ** -rng.uniform(4.0, 8.0)) ** (np.arange(n) / n) * rng.uniform(0.5, 1.5, n)
        calls, spy = fsum_list_calls()
        with spy, counted_passes() as passes:
            p = cumulative(from_weights(a, normalize=True))
            report = bound_report(reciprocal(), p)
            riemann_sum_left(reciprocal(), p)
        assert calls == []
        # the weight total, T_n, the Abel value and the left sum: one
        # extraction round decides each, and the second never runs
        assert passes == [1, 1, 1, 1]
        assert report.invariant_violations() == []

    @pytest.mark.parametrize("n", [CUTOFF, 1000, _summation._CHUNK])
    def test_one_pass_per_sum_of_a_one_block_certification(self, n):
        # the weight total, T_n, the Abel value and the left sum of one
        # block each: one extraction round decides every one
        a = np.random.default_rng(n).lognormal(0.0, 2.0, n)
        calls, spy = fsum_list_calls()
        with spy, counted_passes() as passes:
            p = cumulative(from_weights(a, normalize=True))
            bound_report(reciprocal(), p)
            riemann_sum_left(reciprocal(), p)
        assert calls == []
        assert passes == [1, 1, 1, 1]


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


def split_midpoint_case(seed, offset, where, blocks=80):
    """7-value blocks whose exact sum is the midpoint 1 + 2**-53 plus ``offset``.

    There are ``blocks`` full blocks and a last partial one of 5 values.
    Block ``where`` holds 1.0 and four values near 2**-100: they pass both
    extraction rounds untouched (the block's constants come from 1.0), and
    their plain sum rounds, so that block's remainder sum is off by about
    2**-150.  Block ``blocks // 3`` holds three floats near 2**-53 that put
    the exact total on the midpoint plus ``offset``; every other value is
    zero.  Only block ``where``'s own error bound, 2**-141, covers its
    rounding error: the correction block's bound is 2**-194 and the zero
    blocks' far smaller, so a certificate that loses it decides from a
    total that can sit on the wrong side of the midpoint.
    """
    rng = np.random.default_rng(seed)
    while True:  # draw until the plain sum rounds
        x = rng.uniform(1.0, 2.0, 4) * 2.0**-100
        exact_x = sum(map(Fraction, x.tolist()))
        if Fraction(sum(x.tolist())) != exact_x:
            break
    fix = Fraction(2) ** -53 - exact_x + offset
    c1 = float(fix)
    c2 = float(fix - Fraction(c1))
    c3 = float(fix - Fraction(c1) - Fraction(c2))
    assert Fraction(c1) + Fraction(c2) + Fraction(c3) == fix
    values = np.zeros(7 * blocks + 5)
    start = 7 * where
    values[start:start + 5] = [1.0, *x]
    values[7 * (blocks // 3):7 * (blocks // 3) + 3] = [c1, c2, c3]
    assert sum(map(Fraction, values.tolist())) == 1 + Fraction(2) ** -53 + offset
    return values


class TestBlockedCore:
    """Per-block extraction constants and error bounds, with 7-value blocks.

    Each block is certified with constants from its own largest magnitude,
    and every block's error bound goes into the closing fsum calls, so the
    cases below make one block's constants or bound decide the result.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sign", [-1, 0, 1], ids=["below", "on", "above"])
    @pytest.mark.parametrize("where", [0, 40, 80], ids=["first", "middle", "last-partial"])
    def test_midpoint_split_across_blocks(self, seed, sign, where):
        values = split_midpoint_case(seed, sign * Fraction(2) ** -170, where)
        with mock.patch.object(_summation, "_CHUNK", 7):
            assert_matches_fsum(values)
            assert_matches_fsum(-values)

    @pytest.mark.parametrize(
        "scales",
        [(2.0**-600, 1.0, 2.0**600), (2.0**600, 1.0, 2.0**-600), (2.0**-600, 2.0**600)],
        ids=["ascending", "descending", "alternating"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_of_very_different_magnitudes(self, scales, seed):
        # each block is scale * [b, c * 2**-60, -b, 0, 0, 0, 0]: its exact sum
        # is c * scale * 2**-60, which a plain sum of the block loses to b's
        # rounding, so a block summed with another block's (smaller)
        # constants gives a wrong total; constants from a larger block would
        # make its bound dwarf the total, which the spy on fsum sees
        rng = np.random.default_rng(seed)
        blocks = 3 * CUTOFF // 7
        b = rng.uniform(1.0, 2.0, blocks) * rng.choice([-1.0, 1.0], blocks)
        # c spread over 20 binades, so the total is not a multiple of half its ulp
        c = rng.uniform(1.0, 2.0, blocks) * rng.choice([-1.0, 1.0], blocks) * 2.0 ** -rng.integers(0, 20, blocks)
        scale = np.resize(np.array(scales), blocks)
        values = np.zeros((blocks, 7))
        values[:, 0], values[:, 1], values[:, 2] = b * scale, c * scale * 2.0**-60, -b * scale
        values = values.ravel()
        assert float(np.sum(values[:7])) != values[1]  # the plain sum loses c
        calls, spy = fsum_list_calls()
        with mock.patch.object(_summation, "_CHUNK", 7), spy:
            assert_matches_fsum(values)
        assert calls == [values.size]  # only the reference's own call

    @pytest.mark.parametrize(
        "between",
        [[0.0], [-0.0], [5e-324, -5e-324, 2.0**-1022], [2.0**-900]],
        ids=["zeros", "negative-zeros", "subnormals", "below-2^-800"],
    )
    def test_tiny_blocks_between_large_blocks(self, between):
        # blocks of 2**-300-scale values alternate with blocks of zeros or of
        # values below 2**-800; those get the constants of 2**-800, whose
        # bound is far below the total, so the fast path still decides.
        # 512 // 7 blocks each, the data the case was written for: other
        # counts can put the total on a rounding midpoint (192 // 7 does),
        # which no certificate decides
        rng = np.random.default_rng(7)
        large = rng.uniform(-1.0, 1.0, (512 // 7, 7)) * 2.0**-300
        tiny = np.resize(np.array(between), large.shape)
        values = np.stack([large, tiny], axis=1).ravel()
        calls, spy = fsum_list_calls()
        with mock.patch.object(_summation, "_CHUNK", 7), spy:
            assert_matches_fsum(values)
        assert calls == [values.size]


# values from 2**-900 down to the subnormals, and zeros of either sign
tiny = st.builds(
    lambda m, e: m * 2.0**-e, st.floats(min_value=-2.0, max_value=2.0), st.integers(min_value=900, max_value=1074)
)
zeros = st.sampled_from([0.0, -0.0])
patterns = st.one_of(
    *(st.lists(s, min_size=1, max_size=16) for s in (tiny, zeros, subnormal, st.one_of(tiny, zeros, subnormal)))
)
CHUNK = _summation._CHUNK


class TestTinySums:
    """Sums whose values all lie below 2**-800, which the kernel takes times
    2**_SCALE, and sums of zeros, which need no extraction."""

    @pytest.mark.parametrize("size", [1, CUTOFF - 1, CUTOFF, CHUNK - 1, CHUNK, CHUNK + 1])
    @given(head=patterns, tail=patterns, cut=st.sampled_from(["start", "middle", "end", "block"]),
           seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_tiny_zero_and_subnormal_sums(self, size, head, tail, cut, seed):
        # a head and a tail of two patterns: at CHUNK + 1 values, cut at the
        # block's end, one block may be all zeros and the other tiny;
        # subnormal patterns give subnormal totals
        split = {"start": 0, "middle": size // 2, "end": size, "block": min(size, CHUNK)}[cut]
        assert_matches_fsum(np.concatenate((tiled(head, split, seed), tiled(tail, size - split, seed))))

    @pytest.mark.parametrize("scale", [2.0**-801, 2.0**-900, 2.0**-1000])
    @pytest.mark.parametrize("chunk", [CHUNK, 7], ids=["one-block", "7-blocks"])
    def test_tiny_and_zero_sums_take_one_pass(self, scale, chunk):
        # values taken times 2**_SCALE have a total that scales back
        # exactly, so one extraction round decides it; zeros need none
        values = np.random.default_rng(1).lognormal(0.0, 2.0, 3 * CUTOFF) * scale
        for v in (values, -values, np.zeros(3 * CUTOFF), -np.zeros(3 * CUTOFF)):
            calls, spy = fsum_list_calls()
            with mock.patch.object(_summation, "_CHUNK", chunk), spy, counted_passes() as passes:
                assert_matches_fsum(v)
            assert calls == [v.size]  # only the reference's own call
            assert passes == [1]


def fused_sizes():
    for chunk in (7, *LARGE_CHUNKS):
        for n in dict.fromkeys((CUTOFF - 1, CUTOFF, MID - 1, MID, chunk - 1, chunk, chunk + 1, 3 * chunk + 5)):
            yield pytest.param(chunk, n, id=f"chunk{chunk}-n{n}")


class TestFusedSums:
    """T_n, the left sum and the Abel value, whose terms are formed block by
    block, against the same terms built as whole arrays and summed by fsum."""

    @pytest.mark.parametrize("chunk, n", fused_sizes())
    @pytest.mark.parametrize("g", [reciprocal(), exponential(1.0), logarithmic()], ids=["recip", "exp", "log"])
    def test_against_the_whole_array_formulas(self, chunk, n, g):
        rng = np.random.default_rng(n)
        p = cumulative(from_weights(rng.lognormal(0.0, 2.0, n), normalize=True))
        bps = p.array
        widths = np.diff(bps)
        vals = g.values(bps[1:])
        right = math.fsum((widths * vals).tolist())
        left = math.fsum((widths * g.values(bps[:-1])).tolist())
        abel = math.fsum(np.append(bps[1:-1] * (vals[:-1] - vals[1:]), vals[-1]).tolist())
        ends = g.values(np.array([0.0, 1.0]))
        with mock.patch.object(_summation, "_CHUNK", chunk):
            report = bound_report(g, p)
            assert bits(report.t_n) == bits(right) == bits(exact_sum(widths * vals))
            assert bits(report.abel_value) == bits(abel) == bits(abel_sum(g, p))
            assert bits(riemann_sum_right(g, p)) == bits(right)
            assert bits(riemann_sum_left(g, p)) == bits(left)
            assert report.gap_bound == (float(ends[0]) - float(ends[1])) * float(widths.max())
