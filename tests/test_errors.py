"""Input faults raise typed exceptions that one ``except MonoboundError`` catches."""

import pytest

from monobound import InvalidArgument, MonoboundError
from monobound.bounds import refinement_chain
from monobound.functions import power_complement, reciprocal, tabulated
from monobound.partitions import cumulative, uniform_weights

FAULTS = {
    "power_complement(-1)": lambda: power_complement(-1),
    "uniform_weights(0)": lambda: uniform_weights(0),
    "tabulated([(0, 1)])": lambda: tabulated([(0, 1)]),
    "refinement_chain(depth=0)": lambda: refinement_chain(reciprocal(), cumulative(uniform_weights(4)), 0),
}


@pytest.mark.parametrize("call", FAULTS.values(), ids=FAULTS.keys())
def test_input_fault_is_a_monobound_error(call):
    with pytest.raises(MonoboundError) as info:
        call()
    # still a ValueError, for callers that catch that
    assert type(info.value) is InvalidArgument and isinstance(info.value, ValueError)
