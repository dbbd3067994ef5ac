"""The sort kernels on the fixed inputs and the gate's inputs.

``bcis_sort`` and ``insertion_sort`` find each insertion's stop index by
binary search but report the counters of the linear scan in
``linear_reference``, and ``quicksort_mo3`` counts its ranges of one
value without partitioning them.  ``_check`` pins fast == reference on
the output, all five counters and, for BCIS, the ``(sl, sr)`` window and
the array state as every trip finds them; ``test_properties`` runs it on
random lists and small tuples, ``test_core_sort`` on the pinned inputs.
Here BCIS's counters on the fixed inputs also meet their closed forms,
and quicksort's on the gate inputs are pinned, as are BCIS's on two
inputs that cost more than reverse input above the pre-scan span, and
both sorts' on the large inputs whose counters CI's console-script step
pins.
"""

from dataclasses import astuple
from math import isqrt

import pytest

from sortlab import DatasetSpec, SortStats, bcis_sort, generate, run_suite
from test_properties import CLOSED_FORMS, _check, digest


GATE_INPUTS = [
    DatasetSpec("uniform", 10**4),
    DatasetSpec("reverse", 10**4),
    DatasetSpec("sorted", 10**5),
    DatasetSpec("k_distinct", 10**4, k_param=50),
    DatasetSpec("equal", 10**5),
]

#: Quicksort's counters on the gate inputs, measured.
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
    _, stats, _ = _check(algo, generate(spec), state=digest)
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


def shielded_worst_small(n):
    """``worst_small`` shielded from the pre-scan, for n > 100.

    LC = n - s - 1 comes first, then the s = isqrt(n - 1) values between LC
    and RC = n, ascending: they are all the pre-scan samples, so it swaps
    nothing.  Then every value below LC, descending, each of which passes
    the whole left run in the first trip, then RC.  The middle pre-inversion
    of ``_small_construction`` is applied.
    """
    s = isqrt(n - 1)
    lc = n - s - 1
    arr = [lc] + list(range(n - s, n)) + list(range(lc - 1, 0, -1)) + [n]
    mid = (n - 1) // 2
    arr[mid], arr[n - 1] = arr[n - 1], arr[mid]
    return arr


#: BCIS's counters on ``shielded_worst_small(n)``, measured: comparisons
#: reach 0.818, 0.939 and 0.980 of n(n - 1)/2.
SHIELDED_COUNTS = {
    101: (4131, 4213, 6, 4, False),
    10**3: (469183, 470103, 4, 4, False),
    10**4: (49010415, 49020145, 13, 7, False),
}


@pytest.mark.parametrize("n", sorted(SHIELDED_COUNTS))
def test_shielded_worst_small_counts(n):
    data = shielded_worst_small(n)
    assert sorted(data) == list(range(1, n + 1))
    if n <= 10**3:
        _, stats, _ = _check("bcis", data)
    else:
        # The linear reference would take seconds at this size.
        work = list(data)
        stats = bcis_sort(work)
        assert work == sorted(data)
    assert stats == SortStats(*SHIELDED_COUNTS[n])


#: Counters on the large inputs whose ``sortlab bench`` lines CI pins,
#: each one ``run_suite`` trial at base seed 0, as that command runs it.
#: On ``sorted`` 10**6, the benchmark's largest BCIS input, all but a few
#: dozen right insertions go through the merge of an ascending stretch; on
#: ``reverse`` the left insertions fall and are spliced in once per run;
#: ``equal`` is decided by the galloping equal scan; on ``uniform`` 2**17
#: the rank index names the slots each trip moves.  Quicksort's ranges of
#: one value, most of its work on ``equal`` and 50-distinct input, are
#: counted without being partitioned.  The linear references would take
#: seconds to minutes at these sizes.
CI_COUNTS = [
    ("bcis", DatasetSpec("sorted", 10**6), (3999866, 2999946, 18, 18, False)),
    ("bcis", DatasetSpec("reverse", 10**5), (1666784081, 1666677912, 161, 60, False)),
    ("bcis", DatasetSpec("equal", 10**6), (999999, 3, 1, 1, True)),
    ("bcis", DatasetSpec("uniform", 2**17), (32315760, 16369896, 3806, 375, False)),
    ("qs", DatasetSpec("k_distinct", 10**6, k_param=50),
     (19500774, 22767249, 7589083, 594363, False)),
    ("qs", DatasetSpec("equal", 10**6), (18818571, 26800719, 8933573, 524287, False)),
]


def _ci_id(algo, spec):
    return f"{spec.kind}-{spec.n}" if algo == "bcis" else f"{algo}-{spec.kind}-{spec.n}"


@pytest.mark.parametrize(
    "algo, spec, counts", [pytest.param(*row, id=_ci_id(*row[:2])) for row in CI_COUNTS]
)
def test_counts_of_ci_inputs(algo, spec, counts):
    # run_suite checks the sorted output and the multiset; a record's
    # fields 6 to 10 are the five counters, in CSV order.
    (record,) = run_suite([(algo, spec, 1)])
    assert astuple(record)[6:11] == counts


def nested_extremes(n):
    """1..n as nested extremes: E(values) = [min] + E(interior) + [max].

    Built from the inside out; at every level, window positions
    (m - 1)//2 and m - 1 are exchanged, which undoes in advance the
    kernel's middle exchange.  So every trip finds the window's minimum
    and maximum as LC and RC, the pre-scan and the sweep move nothing,
    and the trip retires just those two items.
    """
    arr = [(n + 1) // 2] if n % 2 else []
    for lo in range(n // 2, 0, -1):
        arr = [lo] + arr + [n + 1 - lo]
        m = len(arr)
        arr[(m - 1) // 2], arr[m - 1] = arr[m - 1], arr[(m - 1) // 2]
    return arr


def test_nested_extremes_counts():
    # A window of m items costs m comparisons: the two boundary tests and
    # one classification per interior item; its one swap is the middle
    # exchange.  Summed over m = n, n - 2, ..., that is floor(n(n + 2)/4).
    for n in [*range(2, 201), 599, 600, 10**3]:
        data = nested_extremes(n)
        assert sorted(data) == list(range(1, n + 1))
        if n <= 100:
            _, stats, _ = _check("bcis", data)
        else:
            # The linear reference would take seconds at these sizes.
            work = list(data)
            stats = bcis_sort(work)
            assert work == sorted(data)
        h = n // 2
        assert stats == SortStats(n * (n + 2) // 4, 3 * h, h, h, False), n
