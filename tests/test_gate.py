"""Fast checks of how the acceptance gate runs its criteria; the criteria
themselves, at full size, are in ``test_acceptance.py``."""

import pytest

from sortlab import SortStats, acceptance, bench


def test_criteria_8_and_9_share_the_insertion_sort_means(monkeypatch):
    sizes = []
    sort = bench.ALGORITHMS["is"]

    def counting(seq):
        sizes.append(len(seq))
        return sort(seq)

    monkeypatch.setattr(acceptance, "AVG_TRIALS", 2)
    monkeypatch.setitem(bench.ALGORITHMS, "is", counting)
    cache = {}
    assert acceptance.check_is_fidelity(cache).passed
    assert sizes == [10**3, 10**3, 10**4, 10**4]
    acceptance.check_count_ratio(cache)
    assert len(sizes) == 4


def loses_an_item_above_10(seq):
    seq.sort()
    if len(seq) > 10:
        seq[0] = seq[1]  # still sorted, but the smallest item is lost
    return SortStats()


def test_correctness_names_a_random_input(monkeypatch):
    monkeypatch.setattr(acceptance, "ALGORITHMS", {"bcis": loses_an_item_above_10})
    with pytest.raises(bench.VerificationError, match=r"^bcis on random n=\d+: "):
        acceptance.check_correctness({})
