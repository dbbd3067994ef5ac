"""The sort kernels on the fixed inputs and the gate's inputs.

``bcis_sort`` and ``insertion_sort`` find each insertion's stop index by
binary search but report the counters of the linear scan in
``linear_reference``.  ``_check`` pins fast == reference on the output,
all five counters and, for BCIS, the ``(sl, sr)`` window and the array
state as every trip finds them; ``test_properties`` runs it on random
lists and small tuples, ``test_core_sort`` on the pinned inputs.  Here
BCIS's counters on the fixed inputs also meet their closed forms, and
quicksort's on the gate inputs are pinned.
"""

import pytest

from sortlab import DatasetSpec, SortStats, generate
from test_properties import CLOSED_FORMS, _check


def _digest(seq):
    return hash(tuple(seq))


GATE_INPUTS = [
    DatasetSpec("uniform", 10**4),
    DatasetSpec("reverse", 10**4),
    DatasetSpec("sorted", 10**5),
    DatasetSpec("k_distinct", 10**4, k_param=50),
    DatasetSpec("equal", 10**5),
]

#: Quicksort's counters on the gate inputs, measured.  No other test
#: checks its counts on more than 300 items.
QS_COUNTS = {
    "uniform": (145799, 112926, 37642, 5704, False),
    "reverse": (193971, 70098, 23366, 5910, False),
    "sorted": (1568944, 196602, 65534, 65535, False),
    "k_distinct": (128682, 128604, 42868, 5757, False),
}

# insertion_sort on the 10**4 inputs is left to the exact inversion-count
# oracle of test_properties, which runs in O(n log n).
DATAGEN_CASES = (
    [("bcis", spec) for spec in GATE_INPUTS]
    + [("is", GATE_INPUTS[2])]
    + [("qs", spec) for spec in GATE_INPUTS if spec.kind in QS_COUNTS]
)


@pytest.mark.parametrize(
    "algo, spec",
    [pytest.param(algo, s, id=f"{s.kind}-{s.n}-{algo}") for algo, s in DATAGEN_CASES],
)
def test_matches_linear_reference_on_datagen_inputs(algo, spec):
    # A digest per trip, not a copy: copies of these 10**4 and 10**5 item
    # arrays at every trip took the file's peak memory from 53 to 76 MB.
    _, stats, _ = _check(algo, generate(spec), state=_digest)
    if algo == "qs":
        assert stats == SortStats(*QS_COUNTS[spec.kind])


@pytest.mark.parametrize("algo", ["bcis", "is"])
@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_matches_linear_reference_on_constructions(algo, kind):
    for n in range(2, 100):
        data = generate(DatasetSpec(kind, n))
        assert sorted(data) == ([1] * n if kind == "equal" else list(range(1, n + 1)))
        _, stats, _ = _check(algo, data)
        if algo == "bcis":
            assert stats == SortStats(*CLOSED_FORMS[kind](n)), n
