import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monobound import _summation, partitions
from monobound._summation import compensated_prefix_sums
from monobound.errors import (
    EmptyInput,
    MonoboundError,
    NonFiniteValue,
    NonPositiveWeight,
    PointOutsideInterval,
    SumOutOfTolerance,
    TooLarge,
    WeightBelowResolution,
    WeightUnderflow,
)
from monobound.partitions import (
    MAX_INTERVALS,
    SUM_TOLERANCE,
    CumulativePartition,
    WeightVector,
    bisect_all,
    cumulative,
    from_weights,
    require_within_budget,
    uniform_weights,
)
from oracles import neumaier_prefixes

weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=64
)


class TestFromWeights:
    def test_worked_weights(self):
        w = from_weights([0.2, 0.3, 0.5])
        assert w.n == 3
        assert w.weights == (0.2, 0.3, 0.5)

    def test_single_unit_weight(self):
        assert from_weights([1.0]).n == 1

    def test_normalization_divides_by_sum(self):
        w = from_weights([2, 3, 5], normalize=True)
        assert w.weights == (0.2, 0.3, 0.5)

    def test_weight_that_underflows_in_normalisation_is_named(self):
        # 5e-324 / 4 rounds to 0.0; the error names the weight as given
        with pytest.raises(WeightUnderflow) as info:
            from_weights([5e-324, 4.0], normalize=True)
        assert isinstance(info.value, MonoboundError)
        assert (info.value.index, info.value.value, info.value.total) == (0, 5e-324, 4.0)
        assert str(info.value) == (
            "weight 0 is 5e-324, which underflows to 0.0 after normalisation by the weight total 4.0"
        )

    @pytest.mark.parametrize("raw", [[2.0, 3.0, 5.0], [5e-324, 4.0, 5e-324]], ids=["valid", "underflow"])
    def test_normalization_checks_positivity_once(self, raw):
        # the input is checked; the quotients only for underflow and their sum
        calls = []
        real = partitions._check_positive
        with mock.patch.object(partitions, "_check_positive", lambda a: calls.append(a) or real(a)):
            try:
                from_weights(raw, normalize=True)
            except WeightUnderflow as exc:
                assert exc.index == 0
        assert len(calls) == 1 and calls[0].tolist() == raw

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            from_weights([])

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(NonPositiveWeight) as info:
            from_weights([0.5, bad, 0.5])
        assert info.value.index == 1

    def test_sum_tolerance_enforced(self):
        with pytest.raises(SumOutOfTolerance):
            from_weights([0.5, 0.6])
        # inside the 1e-9 band is fine
        from_weights([0.5, 0.5 + 5e-10])

    def test_accepts_list_tuple_generator_and_array(self):
        expected = (0.2, 0.3, 0.5)
        assert from_weights([0.2, 0.3, 0.5]).weights == expected
        assert from_weights((0.2, 0.3, 0.5)).weights == expected
        assert from_weights(w for w in [0.2, 0.3, 0.5]).weights == expected
        assert from_weights(np.array([0.2, 0.3, 0.5])).weights == expected
        assert from_weights(iter([2, 3, 5]), normalize=True).weights == expected

    def test_nested_input_rejected(self):
        with pytest.raises(TypeError):
            from_weights([[0.5, 0.5]])

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("n", [2, 600])  # fsum itself, and the extraction kernel's hand-off
    def test_overflowing_sum_is_a_typed_error(self, normalize, n):
        with pytest.raises(NonFiniteValue, match="the sum of the weights is not finite"):
            from_weights([1e308] * n, normalize=normalize)
        with pytest.raises(NonFiniteValue):
            WeightVector([1.7e308, 1.7e308])

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, 0.5 + 1e-9],
            [0.5, float(np.nextafter(0.5 + 1e-9, 1.0))],
            [0.5, 0.5 - 1e-9],
            [0.5, float(np.nextafter(0.5 - 1e-9, 0.0))],
            [1.0 + 1e-9 - 2.0**-40] + [2.0**-53] * 4000,
            [1.0 - 1e-9] + [2.0**-60] * 3000,
        ],
    )
    def test_tolerance_is_decided_by_the_exact_sum(self, values):
        # at the edge of the band the plain sum cannot decide, and the
        # exact sum does; it is what SumOutOfTolerance reports
        total = math.fsum(values)
        if abs(total - 1.0) > SUM_TOLERANCE:
            with pytest.raises(SumOutOfTolerance) as info:
                from_weights(values)
            assert info.value.actual == total
        else:
            assert from_weights(values).n == len(values)

    @given(weight_lists, st.floats(min_value=-3e-9, max_value=3e-9))
    def test_tolerance_decision_matches_the_exact_sum(self, raw, shift):
        a = np.array(raw) * ((1.0 + shift) / math.fsum(raw))
        total = math.fsum(a.tolist())
        if abs(total - 1.0) > SUM_TOLERANCE:
            with pytest.raises(SumOutOfTolerance) as info:
                from_weights(a)
            assert info.value.actual == total
        else:
            from_weights(a)

    def test_out_of_band_sum_reports_the_exact_sum(self):
        values = [0.75] + [0.1] * 5 + [2.0**-55] * 9
        assert float(np.sum(values)) != math.fsum(values)
        with pytest.raises(SumOutOfTolerance) as info:
            from_weights(values)
        assert info.value.actual == math.fsum(values)

    @given(weight_lists)
    def test_normalized_sum_is_tight(self, raw):
        w = from_weights(raw, normalize=True)
        assert abs(math.fsum(w.weights) - 1.0) <= 1e-15


class TestCumulative:
    def test_worked_partition(self):
        p = cumulative(from_weights([0.2, 0.3, 0.5]))
        assert p.breakpoints == (0.0, 0.2, 0.5, 1.0)
        assert p.n == 3

    def test_single_interval(self):
        assert cumulative(from_weights([1.0])).breakpoints == (0.0, 1.0)

    def test_quarter_weights(self):
        p = cumulative(from_weights([0.25] * 4))
        assert p.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_last_breakpoint_snapped_to_one(self):
        p = cumulative(from_weights([0.1] * 10))
        assert p.breakpoints[-1] == 1.0

    @given(weight_lists)
    def test_invariants_hold_for_random_weights(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        bps = p.breakpoints
        assert bps[0] == 0.0 and bps[-1] == 1.0
        assert all(b > a for a, b in zip(bps, bps[1:]))

    @given(weight_lists)
    def test_deterministic_bit_for_bit(self, raw):
        w = from_weights(raw, normalize=True)
        assert cumulative(w).breakpoints == cumulative(w).breakpoints

    @pytest.mark.parametrize(
        "raw, index",
        [([1.0] + [1e-17] * 3, 2), ([0.5, 0.5, 1e-17], 3)],
        ids=["interior", "last"],
    )
    def test_weight_below_resolution_is_named(self, raw, index):
        # 1e-17 is below half an ulp of 1.0, so S_(index - 1) = S_index = 1.0
        w = from_weights(raw, normalize=True)
        with pytest.raises(WeightBelowResolution, match=rf"a_{index} = 1e-17 .* S_{index - 1} = 1\.0") as info:
            cumulative(w)
        assert (info.value.index, info.value.value, info.value.total) == (index, 1e-17, 1.0)

    def test_lost_last_weight_is_still_snapped_to_one(self):
        # S_2 rounds back to S_1 < 1, and the snap of S_n to 1.0 separates them
        p = cumulative(from_weights([1.0 - 2.0**-53, 1e-17]))
        assert p.breakpoints == (0.0, 1.0 - 2.0**-53, 1.0)

    @pytest.mark.parametrize("chunk", [7, _summation._CHUNK])
    @pytest.mark.parametrize("index", [2, 7, 8, 14, 15])
    def test_lost_weight_at_a_block_edge(self, index, chunk):
        # with 7-value blocks, S_7 and S_14 end a block of the prefix sweep
        # and S_8 and S_15 start one
        w = from_weights([1.0] * (index - 1) + [1e-17] + [1.0] * 3, normalize=True)
        total = float(compensated_prefix_sums(w.array[:index - 1])[-1])
        with mock.patch.object(_summation, "_CHUNK", chunk):
            with pytest.raises(WeightBelowResolution) as info:
                cumulative(w)
        assert (info.value.index, info.value.value, info.value.total) == (index, w.array[index - 1], total)

    @pytest.mark.parametrize("chunk", [7, _summation._CHUNK])
    @pytest.mark.parametrize("n", [6, 7, 8, 14, 15])
    def test_snap_at_a_block_edge(self, n, chunk):
        # halving weights up to n - 1 sum exactly to 1 - 2**-53; the lost last
        # weight leaves S_n = S_(n-1), and the snap of S_n to 1.0 separates them
        head = [2.0**-j for j in range(1, n - 1)]
        head.append(2.0 ** -(n - 2) - 2.0**-53)
        with mock.patch.object(_summation, "_CHUNK", chunk):
            p = cumulative(from_weights(head + [1e-17]))
        assert p.array[-2:].tolist() == [1.0 - 2.0**-53, 1.0]
        assert p.array[:-1].tolist() == neumaier_prefixes(head)

    def test_snap_below_the_previous_breakpoint_is_not_blamed_on_a_weight(self):
        with pytest.raises(ValueError, match="strictly increasing") as info:
            cumulative(from_weights([0.5, 0.5 + 1e-10, 1e-12]))
        assert not isinstance(info.value, WeightBelowResolution)


class TestRoundTrip:
    def test_weights_of_worked_partition(self):
        p = CumulativePartition([0.0, 0.2, 0.5, 1.0])
        assert np.diff(p.array).tolist() == [0.2, 0.3, 0.5]

    def test_weights_of_trivial(self):
        assert np.diff(CumulativePartition([0.0, 1.0]).array).tolist() == [1.0]

    def test_weights_of_quarters(self):
        p = CumulativePartition([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.diff(p.array).tolist() == [0.25] * 4

    @given(weight_lists)
    def test_round_trip_within_1e12(self, raw):
        w = from_weights(raw, normalize=True)
        back = np.diff(cumulative(w).array)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(w.weights, back))

    @given(weight_lists)
    def test_partition_round_trip_within_1e12(self, raw):
        p = cumulative(from_weights(raw, normalize=True))
        again = cumulative(WeightVector(np.diff(p.array)))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(p.breakpoints, again.breakpoints))


class TestPartitionValidation:
    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ValueError):
            CumulativePartition([0.1, 1.0])

    def test_last_breakpoint_snap_tolerance(self):
        p = CumulativePartition([0.0, 0.5, 1.0 - 1e-10])
        assert p.breakpoints[-1] == 1.0
        with pytest.raises(ValueError):
            CumulativePartition([0.0, 0.5, 0.9])

    def test_nan_last_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            CumulativePartition([0.0, 0.5, math.nan])

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            CumulativePartition([0.0, 0.5, 0.5, 1.0])

    def test_needs_two_breakpoints(self):
        with pytest.raises(ValueError):
            CumulativePartition((0.0,))

    def test_widths_reproduce_weights_within_1e12(self):
        w = from_weights([0.2, 0.3, 0.5])
        p = cumulative(w)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(np.diff(p.array), w.weights))


class TestArrayStorage:
    def test_views_are_tuples_of_python_floats(self):
        w = from_weights(np.array([0.2, 0.3, 0.5]))
        p = cumulative(w)
        for view in (w.weights, p.breakpoints):
            assert type(view) is tuple
            assert all(type(x) is float for x in view)

    def test_array_is_read_only_and_owned(self):
        source = np.array([0.2, 0.3, 0.5])
        w = from_weights(source)
        source[0] = 0.9
        assert w.weights == (0.2, 0.3, 0.5)
        p = cumulative(w)
        for a in (w.array, p.array):
            assert a.dtype == np.float64
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize(
        "build, source",
        [
            (from_weights, [0.2, 0.3, 0.5]),
            (lambda a: from_weights(a, normalize=True), [2.0, 3.0, 5.0]),
            (WeightVector, [0.2, 0.3, 0.5]),
            (CumulativePartition, [0.0, 0.2, 0.5, 1.0 + 1e-12]),  # snapped in its own copy
        ],
        ids=["from_weights", "from_weights-normalize", "WeightVector", "CumulativePartition"],
    )
    def test_callers_array_is_neither_changed_nor_shared(self, build, source):
        arr = np.array(source)
        obj = build(arr)
        assert arr.tolist() == source
        assert arr.flags.writeable
        assert not obj.array.flags.writeable
        assert not np.shares_memory(obj.array, arr)

    def test_library_built_arrays_are_read_only_and_unshared(self):
        w = from_weights([0.2, 0.3, 0.5])
        p = cumulative(w)
        assert not p.array.flags.writeable
        assert not np.shares_memory(p.array, w.array)
        for obj in (bisect_all(p), uniform_weights(4)):
            assert not obj.array.flags.writeable
            assert not np.shares_memory(obj.array, p.array)

    def test_equality_and_hash_follow_the_values(self):
        a = from_weights([0.2, 0.3, 0.5])
        b = WeightVector((0.2, 0.3, 0.5))
        assert a == b and hash(a) == hash(b)
        assert a != from_weights([0.5, 0.3, 0.2])
        assert a != from_weights([0.5, 0.5])
        p = cumulative(a)
        assert p == CumulativePartition([0.0, 0.2, 0.5, 1.0])
        assert hash(p) == hash(CumulativePartition([0.0, 0.2, 0.5, 1.0]))
        assert p != cumulative(from_weights([0.25] * 4))
        assert a != p and a != a.weights


class TestHelpers:
    def test_uniform_weights(self):
        assert uniform_weights(4).weights == (0.25,) * 4
        with pytest.raises(ValueError):
            uniform_weights(0)

    def test_interval_budget_edges(self):
        with pytest.raises(TooLarge, match="1000000000000 intervals"):
            uniform_weights(10**12)
        require_within_budget(MAX_INTERVALS)
        require_within_budget(1, MAX_INTERVALS.bit_length() - 1)
        require_within_budget(3, 25)
        for n, depth in ((MAX_INTERVALS + 1, 0), (1, MAX_INTERVALS.bit_length()), (5, 25), (1, 10**9)):
            with pytest.raises(TooLarge) as info:
                require_within_budget(n, depth)
            assert (info.value.n, info.value.depth, info.value.limit) == (n, depth, MAX_INTERVALS)

    def test_bisect_all_doubles_interval_count(self):
        p = cumulative(from_weights([0.2, 0.3, 0.5]))
        q = bisect_all(p)
        assert q.n == 2 * p.n
        assert set(p.breakpoints) <= set(q.breakpoints)

    def test_bisect_all_interleaves_midpoints(self):
        q = bisect_all(CumulativePartition([0.0, 0.2, 0.5, 1.0]))
        assert q.breakpoints == (0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)

    def test_bisect_all_between_adjacent_floats_raises(self):
        # the midpoint of [0.5, nextafter(0.5)] rounds onto 0.5
        hi = float(np.nextafter(0.5, 1.0))
        p = CumulativePartition([0.0, 0.25, 0.5, hi, 1.0])
        with pytest.raises(PointOutsideInterval) as info:
            bisect_all(p)
        assert info.value.index == 3
        assert info.value.value == 0.5
