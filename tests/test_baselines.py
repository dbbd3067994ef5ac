"""Unit tests for the instrumented baseline sorts."""

import random

import pytest

from sortlab import SortStats, insertion_sort, quicksort_mo3


class TestInsertionSort:
    def test_two_elements(self):
        seq = [2, 1]
        stats = SortStats()
        insertion_sort(seq, stats=stats)
        assert seq == [1, 2]
        assert stats.comparisons == 1

    def test_ascending_input_one_comparison_per_item(self):
        seq = [1, 2, 3]
        stats = SortStats()
        insertion_sort(seq, stats=stats)
        assert seq == [1, 2, 3]
        assert stats.comparisons == 2

    def test_reverse_input_full_shifts(self):
        seq = [3, 2, 1]
        stats = SortStats()
        insertion_sort(seq, stats=stats)
        assert seq == [1, 2, 3]
        assert stats.comparisons == 3
        # 3 shifts plus one key placement per outer iteration
        assert stats.assignments == 3 + 2

    def test_ascending_large(self):
        n = 500
        seq = list(range(n))
        stats = SortStats()
        insertion_sort(seq, stats=stats)
        assert stats.comparisons == n - 1
        # no shifts: only the key placements
        assert stats.assignments == n - 1

    def test_subrange(self):
        seq = [9, 4, 3, 2, 0]
        insertion_sort(seq, 2, 4, SortStats())
        assert seq == [9, 2, 3, 4, 0]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            insertion_sort([1], 1, 2, SortStats())


class TestQuicksortMo3:
    def test_small(self):
        seq = [3, 1, 2]
        quicksort_mo3(seq, stats=SortStats())
        assert seq == [1, 2, 3]

    def test_all_equal_fixed_point(self):
        seq = [1, 1, 1, 1]
        quicksort_mo3(seq, stats=SortStats())
        assert seq == [1, 1, 1, 1]

    def test_large_random_matches_oracle(self):
        rng = random.Random(23)
        data = [rng.randrange(10**6) for _ in range(1000)]
        work = list(data)
        stats = SortStats()
        quicksort_mo3(work, stats=stats)
        assert work == sorted(data)
        assert stats.assignments == 3 * stats.swaps

    def test_duplicate_heavy_stays_shallow(self):
        # stop-on-equal partitioning must not degenerate on few values
        rng = random.Random(29)
        data = [rng.randrange(5) for _ in range(20000)]
        work = list(data)
        stats = SortStats()
        quicksort_mo3(work, stats=stats)
        assert work == sorted(data)
        n = len(data)
        assert stats.comparisons < 40 * n  # far below quadratic

    def test_sorted_and_reverse(self):
        for data in (list(range(2000)), list(range(2000, 0, -1))):
            work = list(data)
            quicksort_mo3(work, stats=SortStats())
            assert work == sorted(data)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            quicksort_mo3([1, 2], 0, 2, SortStats())
