"""The binary-insertion kernels against the linear-scan reference on the
constructions and the gate's inputs.

``bcis_sort`` and ``insertion_sort`` find each insertion's stop index by
binary search but report the counters of the linear scan in
``linear_reference``.  ``_check`` pins fast == reference on the output,
all five counters and, for BCIS, the ``(sl, sr)`` window and the array
state as every trip finds them; ``test_properties`` runs it on random
lists and small tuples, ``test_core_sort`` on the pinned inputs.
"""

import pytest

from sortlab import DatasetSpec, generate
from test_properties import _check


def _digest(seq):
    return hash(tuple(seq))


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
    # A digest per trip, not a copy: copies of these 10**4 and 10**5 item
    # arrays at every trip took the file's peak memory from 53 to 76 MB.
    _check(algo, generate(spec), state=_digest)


@pytest.mark.parametrize("algo", ["bcis", "is"])
@pytest.mark.parametrize("kind", ["best_small", "worst_small"])
def test_matches_linear_reference_on_constructions(algo, kind):
    for n in range(2, 100):
        _check(algo, generate(DatasetSpec(kind, n)))
