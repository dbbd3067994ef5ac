"""The binary-insertion kernels against the linear-scan reference.

``bcis_sort`` and ``insertion_sort`` find each insertion's stop index by
binary search but report the counters of the linear scan in
``linear_reference``.  These tests pin fast == reference on the output,
all five counters and, for BCIS, the ``(sl, sr)`` window of every trip.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linear_reference
from sortlab import DatasetSpec, bcis_sort, generate, insertion_sort

#: Each production kernel and its linear-scan reference.
PAIRS = {
    "bcis": (bcis_sort, linear_reference.bcis_sort),
    "is": (insertion_sort, linear_reference.insertion_sort),
}


def _run(sort, data, hooked):
    """Sort a copy of data: the output, the counters and, when hooked, the
    window of every trip."""
    work = list(data)
    windows = []
    if hooked:
        stats = sort(work, trip_hook=lambda seq, sl, sr: windows.append((sl, sr)))
    else:
        stats = sort(work)
    return work, stats, windows


def _assert_matches_reference(algo, data):
    fast, reference = PAIRS[algo]
    hooked = algo == "bcis"
    assert _run(fast, data, hooked) == _run(reference, data, hooked)


# Two or three values put ties at nearly every stop index; 10**9 values
# almost none.  Lists up to 300 cross PRESCAN_SPAN (100).
lists = st.sampled_from([2, 3, 10, 10**9]).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=300)
)


@pytest.mark.parametrize("algo", sorted(PAIRS))
@given(data=lists)
@settings(max_examples=300, deadline=None)
def test_matches_linear_reference(algo, data):
    _assert_matches_reference(algo, data)


@pytest.mark.parametrize("algo", sorted(PAIRS))
def test_matches_linear_reference_exhaustive(algo):
    for length in range(9):
        for tup in product((0, 1, 2), repeat=length):
            _assert_matches_reference(algo, tup)


GATE_INPUTS = [
    DatasetSpec("uniform", 10**4),
    DatasetSpec("reverse", 10**4),
    DatasetSpec("sorted", 10**5),
    DatasetSpec("k_distinct", 10**4, k_param=50),
]


# insertion_sort on the 10**4 inputs is left to the exact inversion-count
# oracle of test_properties, which runs in O(n log n).
DATAGEN_CASES = [("bcis", spec) for spec in GATE_INPUTS] + [("is", GATE_INPUTS[2])]


@pytest.mark.parametrize(
    "algo, spec",
    [pytest.param(algo, s, id=f"{s.kind}-{s.n}-{algo}") for algo, s in DATAGEN_CASES],
)
def test_matches_linear_reference_on_datagen_inputs(algo, spec):
    _assert_matches_reference(algo, generate(spec))


@pytest.mark.parametrize("algo", sorted(PAIRS))
@pytest.mark.parametrize("kind", ["best_small", "worst_small"])
def test_matches_linear_reference_on_constructions(algo, kind):
    for n in range(2, 100):
        _assert_matches_reference(algo, generate(DatasetSpec(kind, n)))
