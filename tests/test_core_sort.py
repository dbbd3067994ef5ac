"""Unit tests for the bidirectional conditional insertion sort.

Each step of the sort's loop (the exchanges, the equal scan, the two
insertions and the guarded pre-scan) is driven through ``bcis_sort`` on an
input that isolates it; ``trip_hook`` shows the array between trips.
"""

import random

from sortlab import PRESCAN_SPAN, SortStats, bcis_sort, quicksort_mo3

_rng = random.Random(2016)

#: Named inputs, together covering every step of the loop, and their
#: counters (comparisons, assignments, swaps, sort_trips,
#: terminated_by_equal).  The counts are the product: none may change.
PINNED = {
    "all-equal": ([5] * 6, (5, 3, 1, 1, True)),
    # The middle exchange leaves [5, 7, 5, 5]: the scan stops at position 2.
    "equal-scan-hit-at-2": ([5, 5, 5, 7], (7, 13, 3, 1, False)),
    "equal-scan-hit-at-3": ([5, 5, 3, 5], (8, 10, 2, 1, False)),
    "prescan-no-swaps": ([10] + [50] * 99 + [90], (249, 235, 2, 2, True)),
    "prescan-right-swap": ([1, 200] + list(range(2, 101)) + [50], (565, 401, 13, 7, False)),
    "prescan-left-swap": ([40, 2] + list(range(41, 140)) + [500], (370, 294, 6, 5, False)),
    "left-zero-shifts": ([1, 1, 2], (5, 11, 3, 1, False)),
    "left-one-shift": ([1, 3, 5, 2, 4], (10, 9, 2, 2, False)),
    "left-all-shifts": ([2, 2, 1, 3], (8, 15, 3, 1, False)),
    "right-zero-shifts": ([1, 2, 2], (4, 5, 1, 1, False)),
    "right-one-shift": ([1, 2, 5, 4, 3], (10, 9, 2, 2, False)),
    "right-all-shifts": ([1, 2, 3, 2], (7, 9, 1, 1, False)),
    "reverse-300": (list(range(300, 0, -1)), (15362, 15111, 12, 6, False)),
    "random-500": ([_rng.randrange(100) for _ in range(500)], (6631, 4206, 51, 12, False)),
}


def _counts(stats):
    return (
        stats.comparisons,
        stats.assignments,
        stats.swaps,
        stats.sort_trips,
        stats.terminated_by_equal,
    )


def _trips(data):
    """Sort a copy of data; return its stats and, per trip, the window
    (sl, sr) and a copy of the array as the trip found it."""
    seen = []
    work = list(data)
    stats = bcis_sort(
        work, trip_hook=lambda seq, sl, sr: seen.append((sl, sr, list(seq)))
    )
    assert work == sorted(data)
    return stats, seen


def test_counts_pinned():
    for name, (data, expected) in PINNED.items():
        work = list(data)
        stats = bcis_sort(work)
        assert work == sorted(data), name
        assert _counts(stats) == expected, name


class TestSwap:
    """Exchanges count one swap and 3 assignments, in every sort."""

    def test_exchanges(self):
        # The middle exchange of the only trip already sorts the pair.
        stats, _ = _trips([2, 1])
        assert (stats.swaps, stats.assignments) == (1, 3)

    def test_self_swap_is_identity(self):
        # Quicksort's final pivot exchange meets i == hi - 1 here and
        # exchanges a slot with itself; it still counts.
        seq = [1, 3, 2, 4]
        stats = quicksort_mo3(seq)
        assert seq == [1, 2, 3, 4]
        assert (stats.swaps, stats.assignments) == (2, 6)

    def test_ends(self):
        # The middle exchange gives [3, 2, 1]; LC > RC exchanges the ends.
        stats, _ = _trips([3, 1, 2])
        assert (stats.swaps, stats.assignments) == (2, 6)


class TestIsEqualScan:
    def test_all_equal_sentinel(self):
        stats, seen = _trips([5, 5, 5, 5])
        assert stats.terminated_by_equal
        assert [w[:2] for w in seen] == [(0, 3)]
        # boundary test, then the two interior items
        assert stats.comparisons == 3

    def test_first_unequal_swapped_to_front(self):
        stats, _ = _trips([5, 5, 3, 5])
        assert not stats.terminated_by_equal
        # middle exchange, then 3 swapped to the front; 3 < 5 needs no more
        assert stats.swaps == 2

    def test_first_unequal_wins(self):
        # 7 is found before 3 and swapped to the front, so LC > RC costs a
        # third exchange; taking 3 would have needed none.
        stats, _ = _trips([5, 7, 5, 3, 5])
        assert not stats.terminated_by_equal
        assert stats.swaps == 3


class TestInsertRight:
    # Comparisons: the boundaries' equality and order tests (plus one per
    # equal-scan step), one classification per swept item, one per
    # insertion guard.  Assignments: 3 per exchange, then per insertion the
    # slot refill, the shifts and the placement.

    def test_zero_shifts(self):
        # LC = 1, RC = 2; the interior 2 == RC stops at the first guard.
        stats, _ = _trips([1, 2, 2])
        assert stats.comparisons == 2 + 1 + 1
        assert stats.assignments == 3 + (1 + 0 + 1)

    def test_one_shift(self):
        # Trip 1 (LC = 1, RC = 5) inserts nothing.  Trip 2's middle
        # exchange turns the window [2, 3, 4] into [2, 4, 3]: 4 shifts
        # RC = 3 and stops at the retired 5.
        stats, seen = _trips([1, 2, 5, 4, 3])
        assert [w[:2] for w in seen] == [(0, 4), (1, 3)]
        assert stats.comparisons == (2 + 3) + (2 + 1 + 2)
        assert stats.assignments == 2 * 3 + (1 + 1 + 1)

    def test_shifts_past_all(self):
        # LC = 1, RC = 2: the interior 2 stops at once, then 3 shifts past
        # both 2s of the run.
        stats, _ = _trips([1, 2, 3, 2])
        assert stats.comparisons == 2 + 2 + 1 + 2
        assert stats.assignments == 3 + (1 + 0 + 1) + (1 + 2 + 1)


class TestInsertLeft:
    def test_zero_shifts(self):
        # The middle exchange gives [1, 2, 1]; the equal scan swaps 2 to
        # the front and LC > RC swaps it back.  LC = 1, RC = 2; the
        # interior 1 == LC stops at the first guard.
        stats, _ = _trips([1, 1, 2])
        assert stats.comparisons == 3 + 1 + 1
        assert stats.assignments == 3 * 3 + (1 + 0 + 1)

    def test_one_shift(self):
        # Trip 1 (LC = 1, RC = 5) inserts nothing.  Trip 2's middle
        # exchange turns the window [3, 4, 2] into [3, 2, 4]: 2 shifts
        # LC = 3 and stops at the retired 1.
        stats, seen = _trips([1, 3, 5, 2, 4])
        assert [w[:2] for w in seen] == [(0, 4), (1, 3)]
        assert stats.comparisons == (2 + 3) + (2 + 1 + 2)
        assert stats.assignments == 2 * 3 + (1 + 1 + 1)

    def test_shifts_past_all(self):
        # Three exchanges give [2, 2, 1, 3] with LC = 2, RC = 3: the
        # interior 2 stops at once, then 1 shifts past both 2s of the run.
        stats, _ = _trips([2, 2, 1, 3])
        assert stats.comparisons == 3 + 2 + 1 + 2
        assert stats.assignments == 3 * 3 + (1 + 0 + 1) + (1 + 2 + 1)


class TestGuardedPrescan:
    def test_below_threshold_is_noop(self):
        # Span PRESCAN_SPAN - 1: every interior 1 is swept into the right
        # run during the only trip.
        stats, seen = _trips([0] + [1] * (PRESCAN_SPAN - 2) + [2])
        assert [w[:2] for w in seen] == [(0, PRESCAN_SPAN - 1)]

    def test_interior_values_cause_no_swaps(self):
        # Span exactly 100: the pre-scan classifies floor(sqrt(100)) = 10
        # items and swaps none; the sweep skips them, so they are the next
        # window, which the equal scan finishes.
        stats, seen = _trips([10] + [50] * 99 + [90])
        assert [w[:2] for w in seen] == [(0, 100), (1, 10)]
        assert stats.swaps == 2  # the two middle exchanges
        assert stats.terminated_by_equal

    def test_large_item_swapped_to_right_boundary(self):
        stats, seen = _trips([1, 200] + list(range(2, 101)) + [50])
        sl, sr, seq = seen[1]
        assert seq[-1] == 200
        assert sr == len(seq) - 2  # 200 became RC: nothing else went right

    def test_small_item_swapped_to_left_boundary(self):
        stats, seen = _trips([40, 2] + list(range(41, 140)) + [500])
        sl, sr, seq = seen[1]
        assert seq[0] == 2
        assert sl == 1  # 2 became LC: nothing else went left


class TestBcisSort:
    def test_empty_range(self):
        seq = []
        stats = bcis_sort(seq)
        assert seq == []
        assert stats == SortStats()

    def test_single_element(self):
        seq = [3]
        bcis_sort(seq)
        assert seq == [3]

    def test_all_equal_terminates_in_one_trip(self):
        seq = [5, 5, 5, 5, 5]
        stats = bcis_sort(seq)
        assert seq == [5] * 5
        assert stats.terminated_by_equal
        assert stats.sort_trips == 1
        assert stats.comparisons <= 10

    def test_already_sorted_fixed_point(self):
        seq = list(range(1, 8))
        bcis_sort(seq)
        assert seq == list(range(1, 8))

    def test_small_unsorted(self):
        seq = [3, 1, 2]
        bcis_sort(seq)
        assert seq == [1, 2, 3]

    def test_generic_elements(self):
        seq = ["pear", "apple", "fig", "apple"]
        bcis_sort(seq)
        assert seq == ["apple", "apple", "fig", "pear"]

    def test_trip_count_bound(self):
        rng = random.Random(5)
        for n in (2, 3, 10, 101, 500):
            data = [rng.randrange(1000) for _ in range(n)]
            stats = bcis_sort(data)
            assert 1 <= stats.sort_trips <= -(-n // 2) + 1

    def test_region_invariants_at_trip_boundaries(self):
        def hook(seq, sl, sr):
            assert 0 <= sl <= sr < len(seq)
            left_run = seq[: sl + 1]
            right_run = seq[sr:]
            assert left_run == sorted(left_run)
            assert right_run == sorted(right_run)
            window = seq[sl : sr + 1]
            if left_run[:-1]:
                assert max(left_run[:-1]) <= min(window)
            if right_run[1:]:
                assert min(right_run[1:]) >= max(window)

        rng = random.Random(17)
        for n in (5, 37, 120, 400):
            data = [rng.randrange(50) for _ in range(n)]
            bcis_sort(data, trip_hook=hook)
            assert data == sorted(data)
