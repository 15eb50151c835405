"""Input faults raise InvalidArgument, which one ``except MonoboundError`` catches.

Each row is a call and the message it must raise, byte for byte: every
argument a routine does not accept, whatever the routine, is the one type.
"""

import numpy as np
import pytest

from monobound import InvalidArgument, MonoboundError
from monobound.bounds import refinement_chain
from monobound.functions import power_complement, reciprocal, tabulated
from monobound.majorization import is_majorized
from monobound.partitions import (
    CumulativePartition,
    WeightVector,
    bisect_all,
    cumulative,
    from_weights,
    uniform_weights,
)
from monobound.transform import polynomial_density

FAULTS = {
    "power_complement(-1)": (lambda: power_complement(-1), "k must be a positive real, got -1.0"),
    "uniform_weights(0)": (lambda: uniform_weights(0), "n must be >= 1, got 0"),
    "tabulated([(0, 1)])": (lambda: tabulated([(0, 1)]), "tabulated function needs at least 2 knots"),
    "refinement_chain(depth=0)": (
        lambda: refinement_chain(reciprocal(), cumulative(uniform_weights(4)), 0),
        "depth must be >= 1, got 0",
    ),
    "from_weights([])": (lambda: from_weights([]), "weight list must not be empty"),
    "WeightVector([])": (lambda: WeightVector([]), "weight list must not be empty"),
    "from_weights([], normalize=True)": (lambda: from_weights([], normalize=True), "weight list must not be empty"),
    "negative weight": (
        lambda: from_weights([0.5, -0.5]),
        "weight a_2 is -0.5; weights must be positive finite numbers",
    ),
    "underflowing weight": (
        lambda: from_weights([5e-324, 4.0], normalize=True),
        "weight a_1 is 5e-324, which underflows to 0.0 after normalisation by the weight total 4.0",
    ),
    "sum of 1.1": (
        lambda: from_weights([0.5, 0.6]),
        "weights sum to 1.1, outside 1 +/- 1e-09; pass normalize=True to rescale",
    ),
    "reciprocal()(1.5)": (lambda: reciprocal()(1.5), "argument 1.5 lies outside the domain [0, 1]"),
    "polynomial_density([0.5])": (
        lambda: polynomial_density([0.5]),
        "density has mass 0.5 on [0, 1]; expected 1 within 1e-09",
    ),
    "length mismatch": (lambda: is_majorized([1.0], [0.5, 0.5]), "length mismatch: 1 vs 2"),
}


@pytest.mark.parametrize("call, message", FAULTS.values(), ids=FAULTS.keys())
def test_input_fault_is_a_monobound_error(call, message):
    with pytest.raises(MonoboundError) as info:
        call()
    # still a ValueError, for callers that catch that
    assert type(info.value) is InvalidArgument and isinstance(info.value, ValueError)
    assert str(info.value) == message


#: Four intervals; the third lies between adjacent floats, so its midpoint rounds onto 0.5.
ADJACENT = [0.0, 0.25, 0.5, float(np.nextafter(0.5, 1.0)), 1.0]

#: Partitions with cells of zero width, which no sum over a partition sees: no input fault.
ACCEPTED = {
    "weight below resolution": (
        lambda: cumulative(from_weights([1.0, 1e-17, 1e-17], normalize=True)),
        (0.0, 1.0, 1.0, 1.0),
    ),
    "interval between adjacent floats": (
        lambda: bisect_all(CumulativePartition(ADJACENT)),
        (0.0, 0.125, 0.25, 0.375, 0.5, 0.5, ADJACENT[3], 0.75, 1.0),
    ),
}


@pytest.mark.parametrize("call, breakpoints", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_zero_width_cell_is_no_input_fault(call, breakpoints):
    assert call().breakpoints == breakpoints
