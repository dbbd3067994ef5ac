"""Unit tests for median-of-three quicksort.

Insertion sort's counters are checked by the exact oracle of
``test_properties``.
"""

import random

from sortlab import quicksort_mo3


class TestQuicksortMo3:
    def test_small(self):
        seq = [3, 1, 2]
        quicksort_mo3(seq)
        assert seq == [1, 2, 3]

    def test_all_equal_fixed_point(self):
        seq = [1, 1, 1, 1]
        quicksort_mo3(seq)
        assert seq == [1, 1, 1, 1]

    def test_large_random_matches_oracle(self):
        rng = random.Random(23)
        data = [rng.randrange(10**6) for _ in range(1000)]
        work = list(data)
        stats = quicksort_mo3(work)
        assert work == sorted(data)
        assert stats.assignments == 3 * stats.swaps

    def test_duplicate_heavy_stays_shallow(self):
        # stop-on-equal partitioning must not degenerate on few values
        rng = random.Random(29)
        data = [rng.randrange(5) for _ in range(20000)]
        work = list(data)
        stats = quicksort_mo3(work)
        assert work == sorted(data)
        n = len(data)
        assert stats.comparisons < 40 * n  # far below quadratic

    def test_sorted_and_reverse(self):
        for data in (list(range(2000)), list(range(2000, 0, -1))):
            work = list(data)
            quicksort_mo3(work)
            assert work == sorted(data)
