import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monobound._summation import NeumaierSum
from monobound.errors import LengthMismatch, NotConvex, NotMajorized, SumOverflow
from monobound.functions import power_complement
from monobound.majorization import (
    RealVector,
    as_real_vector,
    cumulative_majorization_bridge,
    generate_majorized_pair,
    is_majorized,
    karamata_check,
)
from monobound.partitions import from_weights, uniform_weights

vectors = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=32
)


def oracle_is_majorized(x, y, tol=1e-12):
    """The tuple-and-sorted() implementation, one scalar step at a time.

    Prefix sums come from a NeumaierSum loop; the slack is the relative one,
    tol * max(fsum |x_i|, fsum |y_i|).  Returns (relation, margins).
    """
    def prefixes(values):
        acc, out = NeumaierSum(), []
        for v in values:
            acc.add(v)
            out.append(acc.value)
        return out

    xs = sorted((float(t) for t in x), reverse=True)
    ys = sorted((float(t) for t in y), reverse=True)
    margins = tuple(b - a for a, b in zip(prefixes(xs), prefixes(ys)))
    slack = tol * max(math.fsum(abs(t) for t in xs), math.fsum(abs(t) for t in ys))
    if abs(margins[-1]) > slack:
        return "total_mismatch", margins
    x_under = all(m >= -slack for m in margins[:-1])
    y_under = all(m <= slack for m in margins[:-1])
    if x_under and y_under:
        return "both", margins
    if x_under:
        return "x_majorized_by_y", margins
    return ("y_majorized_by_x" if y_under else "incomparable"), margins


def bits(values):
    return [float(v).hex() for v in values]


#: Few distinct values, signed zeros among them, so sorting meets many ties.
tied_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300, -1e-300])
wide_values = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def vector_pairs(draw, values):
    n = draw(st.integers(1, 40))
    x = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):  # a permutation of x, zeros' signs flipped
        y = [(-t if t == 0.0 else t) for t in draw(st.permutations(x))]
    else:
        y = draw(st.lists(values, min_size=n, max_size=n))
    return x, y


class TestIsMajorized:
    def test_identical_vectors_are_both(self):
        assert is_majorized([0.3, 0.7], [0.3, 0.7]).relation == "both"

    def test_uniform_majorized_by_extreme_point(self):
        v = is_majorized([0.5, 0.5], [1.0, 0.0])
        assert v.relation == "x_majorized_by_y"
        assert v.prefix_margins == pytest.approx([0.5, 0.0], abs=1e-15)

    def test_hand_checked_triple(self):
        v = is_majorized([0.5, 0.4, 0.1], [0.6, 0.3, 0.1])
        assert v.relation == "x_majorized_by_y"
        # prefixes: 0.5 <= 0.6, 0.9 <= 0.9, totals equal
        assert v.prefix_margins[0] == pytest.approx(0.1, abs=1e-15)
        assert v.prefix_margins[1] == pytest.approx(0.0, abs=1e-15)

    def test_swapped_arguments_flip_the_relation(self):
        assert is_majorized([1.0, 0.0], [0.5, 0.5]).relation == "y_majorized_by_x"

    def test_permutations_compare_as_both(self):
        assert is_majorized([0.1, 0.9], [0.9, 0.1]).relation == "both"

    def test_incomparable_pair(self):
        v = is_majorized([0.6, 0.2, 0.2], [0.5, 0.45, 0.05])
        assert v.relation == "incomparable"

    def test_total_mismatch(self):
        assert is_majorized([1.0, 1.0], [1.0, 0.0]).relation == "total_mismatch"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_majorized([1.0], [0.5, 0.5])

    def test_sorting_is_internal(self):
        # entry order must not matter
        assert is_majorized([0.5, 0.5], [0.0, 1.0]).relation == "x_majorized_by_y"

    def test_verdict_wire_format(self):
        d = is_majorized([0.5, 0.5], [1.0, 0.0]).to_dict()
        assert list(d.keys()) == ["relation", "prefix_margins"]
        assert isinstance(d["prefix_margins"], list)

    @given(vectors)
    def test_reflexivity(self, xs):
        assert is_majorized(xs, xs).relation == "both"

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_covariance(self, c):
        x, y = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1]
        base = is_majorized(x, y).relation
        scaled = is_majorized([c * t for t in x], [c * t for t in y]).relation
        assert scaled == base


class TestArrayPathMatchesOracle:
    @staticmethod
    def check(x, y):
        got = is_majorized(x, y)
        relation, margins = oracle_is_majorized(x, y)
        assert got.relation == relation
        assert bits(got.prefix_margins) == bits(margins)

    @given(vector_pairs(tied_values))
    def test_ties_and_signed_zeros(self, pair):
        self.check(*pair)

    @given(vector_pairs(wide_values))
    def test_wide_magnitudes(self, pair):
        self.check(*pair)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 400), st.integers(0, 2**32 - 1))
    def test_generated_pairs(self, n, transfers, seed):
        x, y = generate_majorized_pair(n, transfers, seed)
        self.check(x.entries, y.entries)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 0.1])
    def test_slack_passed_through(self, tol):
        x, y = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1]
        assert is_majorized(x, y, tol).relation == oracle_is_majorized(x, y, tol)[0]


class TestScaleAwareSlack:
    def test_tiny_vectors_are_not_called_permutations(self):
        # an absolute 1e-12 slack swallowed the whole 5e-13 margin
        v = is_majorized([5e-13, 5e-13], [1e-12, 0.0])
        assert v.relation == "x_majorized_by_y"
        assert v.prefix_margins == (5e-13, 0.0)

    def test_rounding_at_large_totals_is_not_a_mismatch(self):
        x = [71839804972.64835, 69444894272.95683, 75387066709.9101]
        y = [94894367493.77654, 46004513930.90961, 75772884530.82915]
        v = is_majorized(x, y)
        assert v.prefix_margins[-1] == 3.0517578125e-05  # rounding at 2.2e11
        assert v.relation == "x_majorized_by_y"

    @pytest.mark.parametrize("k", [-900, -600, -40, 40, 600, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        x, y = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1]
        base = is_majorized(x, y)
        c = 2.0**k
        scaled = is_majorized([c * t for t in x], [c * t for t in y])
        assert scaled.relation == base.relation
        assert scaled.prefix_margins == tuple(c * m for m in base.prefix_margins)

    def test_zero_vectors_compare_as_both(self):
        assert is_majorized([0.0, -0.0], [-0.0, 0.0]).relation == "both"


class TestOverflow:
    @pytest.mark.parametrize(
        "x, y",
        [
            ([1e308, 1e308], [1e308, 1e308]),  # prefix sums overflow
            ([-1e308], [1e308]),  # a margin overflows
            ([1e308, -1e308], [1e308, -1e308]),  # the sum of magnitudes overflows
        ],
    )
    def test_refused_with_a_typed_error(self, x, y):
        with pytest.raises(SumOverflow):
            is_majorized(x, y)

    def test_karamata_refuses_too(self):
        with pytest.raises(SumOverflow):
            karamata_check(lambda t: t * t, [1e308, 1e308], [1e308, 1e308])

    def test_largest_finite_sums_still_compare(self):
        v = is_majorized([8e307, 8e307], [1.6e308, 0.0])
        assert v.relation == "x_majorized_by_y"


class TestRealVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RealVector(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RealVector((1.0, math.inf))

    def test_negative_entries_allowed(self):
        assert RealVector((-1.0, 2.0)).n == 2

    def test_as_real_vector_accepts_weight_vectors(self):
        v = as_real_vector(from_weights([0.2, 0.3, 0.5]))
        assert v.entries == (0.2, 0.3, 0.5)

    def test_weight_vector_array_is_shared(self):
        w = from_weights([0.2, 0.3, 0.5])
        assert as_real_vector(w).array is w.array

    def test_one_read_only_float64_array(self):
        source = np.array([3.0, -1.0, 2.0])
        v = RealVector(source)
        source[0] = 99.0
        assert v.array.dtype == np.float64 and not v.array.flags.writeable
        assert v.entries == (3.0, -1.0, 2.0)
        assert all(type(t) is float for t in v.entries)
        with pytest.raises(ValueError):
            v.array[0] = 1.0

    def test_equality_and_hash_follow_the_values(self):
        a, b = RealVector([0.0, 1.0]), RealVector((-0.0, 1.0))
        assert a == b and hash(a) == hash(b)
        assert a != RealVector([1.0, 0.0])

    def test_as_real_vector_flattens_and_converts(self):
        assert as_real_vector([[1, 2], [3, 4]]).entries == (1.0, 2.0, 3.0, 4.0)
        assert as_real_vector(np.arange(3)).entries == (0.0, 1.0, 2.0)

    def test_rejects_nested_input(self):
        with pytest.raises(TypeError):
            RealVector([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_real_vector([1.0, math.nan])


class TestKaramata:
    def test_square_on_extreme_pair(self):
        rep = karamata_check(lambda t: t * t, [0.5, 0.5], [1.0, 0.0])
        assert rep.margin == pytest.approx(0.5, abs=1e-15)
        assert rep.holds
        assert rep.sum_x == pytest.approx(0.5, abs=1e-15)
        assert rep.sum_y == pytest.approx(1.0, abs=1e-15)

    def test_equal_vectors_give_zero_margin(self):
        rep = karamata_check(math.exp, [0.2, 0.8], [0.8, 0.2])
        assert rep.margin == pytest.approx(0.0, abs=1e-15)

    def test_hand_checked_triple(self):
        rep = karamata_check(lambda t: t * t, [0.5, 0.4, 0.1], [0.6, 0.3, 0.1])
        # 0.36 + 0.09 + 0.01 = 0.46 versus 0.25 + 0.16 + 0.01 = 0.42
        assert rep.margin == pytest.approx(0.04, abs=1e-12)
        assert rep.holds

    def test_not_majorized_rejected(self):
        with pytest.raises(NotMajorized):
            karamata_check(lambda t: t * t, [1.0, 0.0], [0.5, 0.5])

    def test_concave_function_rejected_with_witness(self):
        with pytest.raises(NotConvex) as info:
            karamata_check(lambda t: -t * t, [0.5, 0.5], [1.0, 0.0])
        assert len(info.value.witness) == 3

    def test_square_near_1e8_passes_the_convexity_guard(self):
        # second differences of t^2 there are rounding noise of a few units
        rep = karamata_check(lambda t: t * t, [1e8 + 0.25, 1e8 + 0.25], [1e8 + 0.5, 1e8])
        assert rep.holds

    def test_concave_function_rejected_at_large_scale(self):
        with pytest.raises(NotConvex):
            karamata_check(lambda t: -t * t, [5e7, 5e7], [1e8, 0.0])

    def test_catalog_function_must_be_convex(self):
        # 1 - t^2 is concave on [0, 1]
        with pytest.raises(NotConvex):
            karamata_check(power_complement(2), [0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize(
        "g", [lambda t: t * t, math.exp, lambda t: abs(t - 0.5)], ids=["square", "exp", "abs"]
    )
    def test_margin_nonnegative_on_generated_pairs(self, g):
        for seed in range(40):
            x, y = generate_majorized_pair(n=12, transfers=30, seed=seed)
            assert karamata_check(g, x, y).margin >= -1e-12


def reference_rounds(n, transfers, seed):
    """The round-based generator spelled out: each round orders its disjoint
    pairs by value and moves a random share of half the gap downhill."""
    rng = np.random.default_rng(seed)
    y = rng.random(n)
    x = y.copy()
    while transfers > 0:
        m = min(n // 2, transfers)
        i, j = rng.permutation(n)[: 2 * m].reshape(2, m)
        up = x[i] < x[j]
        hi, lo = np.where(up, j, i), np.where(up, i, j)
        delta = rng.random(m) * 0.5 * (x[hi] - x[lo])
        x[hi] -= delta
        x[lo] += delta
        transfers -= m
    return x, y


@st.composite
def generator_cases(draw):
    n = draw(st.integers(2, 300))
    return n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 2**32 - 1))


class TestGenerator:
    def test_zero_transfers_give_identical_vectors(self):
        x, y = generate_majorized_pair(n=5, transfers=0, seed=3)
        assert x.entries == y.entries
        assert is_majorized(x, y).relation == "both"

    def test_deterministic_for_fixed_seed(self):
        a = generate_majorized_pair(n=8, transfers=20, seed=11)
        b = generate_majorized_pair(n=8, transfers=20, seed=11)
        assert a[0].entries == b[0].entries and a[1].entries == b[1].entries

    def test_generated_pairs_are_majorized(self):
        rng = np.random.default_rng(17)
        for seed in range(200):
            n = int(rng.integers(2, 65))
            transfers = int(rng.integers(0, 201))
            x, y = generate_majorized_pair(n, transfers, seed=seed)
            assert is_majorized(x, y).relation in ("x_majorized_by_y", "both")

    def test_transfers_strictly_flatten(self):
        x, y = generate_majorized_pair(n=6, transfers=25, seed=2)
        assert is_majorized(x, y).relation == "x_majorized_by_y"

    def test_transitivity_through_chained_transfers(self):
        x, y = generate_majorized_pair(n=10, transfers=15, seed=5)
        # apply further equalizing transfers to x by hand
        rng = np.random.default_rng(6)
        z = np.array(x.entries)
        for _ in range(15):
            i, j = rng.choice(10, size=2, replace=False)
            if z[i] < z[j]:
                i, j = j, i
            delta = rng.random() * 0.5 * (z[i] - z[j])
            z[i] -= delta
            z[j] += delta
        assert is_majorized(z, x).relation in ("x_majorized_by_y", "both")
        assert is_majorized(z, y).relation in ("x_majorized_by_y", "both")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_majorized_pair(1, 5, seed=0)
        with pytest.raises(ValueError):
            generate_majorized_pair(4, -1, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(generator_cases())
    @example((2, 0, 0))
    @example((2, 7, 1))
    @example((7, 2, 3))  # odd n, transfers below n // 2
    @example((299, 148, 4))
    @example((300, 900, 5))
    def test_rounds_keep_the_pair_majorized(self, case):
        n, transfers, seed = case
        x, y = generate_majorized_pair(n, transfers, seed)
        assert x.n == y.n == n
        assert is_majorized(x, y).relation in ("x_majorized_by_y", "both")
        assert y.array.min() <= x.array.min() and x.array.max() <= y.array.max()
        # each move touches two entries, so a few moves leave the rest alone
        assert np.count_nonzero(x.array != y.array) <= 2 * transfers
        if transfers == 0:
            assert np.array_equal(x.array, y.array)

    @settings(max_examples=60, deadline=None)
    @given(generator_cases())
    @example((10**4, 15000, 3))
    def test_matches_the_round_by_round_reference(self, case):
        x, y = generate_majorized_pair(*case)
        rx, ry = reference_rounds(*case)
        assert x.array.tobytes() == rx.tobytes() and y.array.tobytes() == ry.tobytes()


class TestBridge:
    def test_uniform_is_majorized_by_everything(self):
        w = from_weights([0.2, 0.3, 0.5])
        v = cumulative_majorization_bridge(uniform_weights(3), w)
        assert v.relation == "x_majorized_by_y"

    def test_self_comparison(self):
        w = from_weights([0.2, 0.3, 0.5])
        assert cumulative_majorization_bridge(w, w).relation == "both"

    def test_hand_checked_weight_pair(self):
        w1 = from_weights([0.2, 0.3, 0.5])
        w2 = from_weights([0.25, 0.25, 0.5])
        # sorted prefixes: (0.5, 0.8) vs (0.5, 0.75), so w2 is majorized by w1
        assert cumulative_majorization_bridge(w1, w2).relation == "y_majorized_by_x"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cumulative_majorization_bridge(uniform_weights(2), uniform_weights(3))

    def test_totals_match_automatically(self):
        v = cumulative_majorization_bridge(uniform_weights(4), from_weights([0.1, 0.2, 0.3, 0.4]))
        assert v.relation != "total_mismatch"
        assert v.prefix_margins[-1] == pytest.approx(0.0, abs=1e-12)
