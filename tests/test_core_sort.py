"""Unit tests for the bidirectional conditional insertion sort.

``PINNED`` drives each step of a sort trip (the opening's exchanges, equal
scan and guarded pre-scan, and the sweep's two insertions) through
``bcis_sort`` on an input that isolates it, and pins its counters and the
window of every trip; a row's comment, where it has one, derives its
counts.
"""

import random
from array import array

import pytest

from sortlab import SortStats, bcis_sort, insertion_sort, quicksort_mo3
from test_properties import _check, record

_rng = random.Random(2016)

#: Named inputs, together covering every step of a trip: their counters
#: (comparisons, assignments, swaps, sort_trips, terminated_by_equal) and
#: the window (sl, sr) of every trip.  The counts are the product: none
#: may change.  Comparisons: the boundaries' equality and order tests
#: (plus one per equal-scan step), one classification per interior item,
#: one per insertion guard.  Assignments: 3 per exchange, then per
#: insertion the slot refill, the shifts and the placement.
PINNED = {
    # The middle exchange of the only trip already sorts the pair.
    "swap-pair": ([2, 1], (2, 3, 1, 1, False), [(0, 1)]),
    # The middle exchange gives [3, 2, 1]; LC > RC exchanges the ends.
    "swap-ends": ([3, 1, 2], (3, 6, 2, 1, False), [(0, 2)]),
    # The boundary test, then the interior items: one value, done.
    "all-equal": ([5] * 6, (5, 3, 1, 1, True), [(0, 5)]),
    # The middle exchange leaves [5, 7, 5, 5]: the scan stops at position 2.
    "equal-scan-hit-at-2": ([5, 5, 5, 7], (7, 13, 3, 1, False), [(0, 3)]),
    # The middle exchange, then 3 swapped to the front; 3 < 5 needs no more.
    "equal-scan-hit-at-3": ([5, 5, 3, 5], (8, 10, 2, 1, False), [(0, 3)]),
    # 7 is found before 3 and swapped to the front, so LC > RC costs a
    # third exchange; taking 3 would have needed none.
    "equal-scan-first-unequal": ([5, 7, 5, 3, 5], (11, 18, 3, 1, False), [(0, 4)]),
    # Span 99, one below PRESCAN_SPAN: no pre-scan, and every interior 1
    # is swept into the right run during the only trip.
    "prescan-below-span": ([0] + [1] * 98 + [2], (248, 250, 1, 1, False), [(0, 99)]),
    # Span exactly 100: the pre-scan classifies floor(sqrt(100)) = 10 items
    # and swaps none; the sweep skips them, so they are the next window,
    # which the equal scan finishes.  Two swaps: the middle exchanges.
    "prescan-no-swaps": ([10] + [50] * 99 + [90], (249, 235, 2, 2, True), [(0, 100), (1, 10)]),
    "prescan-right-swap": (
        [1, 200] + list(range(2, 101)) + [50],
        (565, 401, 13, 7, False),
        [(0, 101), (1, 100), (2, 48), (25, 47), (36, 46), (41, 45), (43, 44)],
    ),
    "prescan-left-swap": (
        [40, 2] + list(range(41, 140)) + [500],
        (370, 294, 6, 5, False),
        [(0, 101), (1, 49), (2, 24), (3, 12), (4, 6)],
    ),
    # The middle exchange gives [1, 2, 1]; the equal scan swaps 2 to the
    # front and LC > RC swaps it back.  LC = 1, RC = 2; the interior
    # 1 == LC stops at the first guard.  Comparisons 3 + 1 + 1,
    # assignments 3 * 3 + (1 + 0 + 1).
    "left-zero-shifts": ([1, 1, 2], (5, 11, 3, 1, False), [(0, 2)]),
    # Trip 1 (LC = 1, RC = 5) inserts nothing.  Trip 2's middle exchange
    # turns the window [3, 4, 2] into [3, 2, 4]: 2 shifts LC = 3 and stops
    # at the retired 1.  Comparisons (2 + 3) + (2 + 1 + 2), assignments
    # 2 * 3 + (1 + 1 + 1).
    "left-one-shift": ([1, 3, 5, 2, 4], (10, 9, 2, 2, False), [(0, 4), (1, 3)]),
    # Three exchanges give [2, 2, 1, 3] with LC = 2, RC = 3: the interior 2
    # stops at once, then 1 shifts past both 2s of the run.  Comparisons
    # 3 + 2 + 1 + 2, assignments 3 * 3 + (1 + 0 + 1) + (1 + 2 + 1).
    "left-all-shifts": ([2, 2, 1, 3], (8, 15, 3, 1, False), [(0, 3)]),
    # LC = 1, RC = 2; the interior 2 == RC stops at the first guard.
    # Comparisons 2 + 1 + 1, assignments 3 + (1 + 0 + 1).
    "right-zero-shifts": ([1, 2, 2], (4, 5, 1, 1, False), [(0, 2)]),
    # Trip 1 (LC = 1, RC = 5) inserts nothing.  Trip 2's middle exchange
    # turns the window [2, 3, 4] into [2, 4, 3]: 4 shifts RC = 3 and stops
    # at the retired 5.  Comparisons (2 + 3) + (2 + 1 + 2), assignments
    # 2 * 3 + (1 + 1 + 1).
    "right-one-shift": ([1, 2, 5, 4, 3], (10, 9, 2, 2, False), [(0, 4), (1, 3)]),
    # LC = 1, RC = 2: the interior 2 stops at once, then 3 shifts past both
    # 2s of the run.  Comparisons 2 + 2 + 1 + 2, assignments
    # 3 + (1 + 0 + 1) + (1 + 2 + 1).
    "right-all-shifts": ([1, 2, 3, 2], (7, 9, 1, 1, False), [(0, 3)]),
    "reverse-300": (
        list(range(300, 0, -1)),
        (15362, 15111, 12, 6, False),
        [(0, 299), (151, 298), (224, 295), (261, 294), (277, 291), (285, 290)],
    ),
    "random-500": (
        [_rng.randrange(100) for _ in range(500)],
        (6631, 4206, 51, 12, False),
        [(0, 499), (57, 469), (81, 449), (91, 440), (123, 431), (132, 420),
         (175, 408), (191, 366), (202, 359), (214, 358), (224, 321), (257, 273)],
    ),
}


def test_counts_pinned():
    for name, (data, counters, windows) in PINNED.items():
        _, stats, trips = _check("bcis", data)
        assert stats == SortStats(*counters), name
        assert [(sl, sr) for sl, sr, _ in trips] == windows, name


class TestSwap:
    def test_self_swap_is_identity(self):
        # Quicksort's final pivot exchange meets i == hi - 1 here and
        # exchanges a slot with itself; it still counts one swap and 3
        # assignments.
        seq = [1, 3, 2, 4]
        stats = quicksort_mo3(seq)
        assert seq == [1, 2, 3, 4]
        assert (stats.swaps, stats.assignments) == (2, 6)


class TestGuardedPrescan:
    def test_large_item_swapped_to_right_boundary(self):
        _, _, trips = record(bcis_sort, PINNED["prescan-right-swap"][0])
        sl, sr, seq = trips[1]
        assert seq[-1] == 200
        assert sr == len(seq) - 2  # 200 became RC: nothing else went right

    def test_small_item_swapped_to_left_boundary(self):
        _, _, trips = record(bcis_sort, PINNED["prescan-left-swap"][0])
        sl, sr, seq = trips[1]
        assert seq[0] == 2
        assert sl == 1  # 2 became LC: nothing else went left


class TestBcisSort:
    def test_empty_range(self):
        seq = []
        stats = bcis_sort(seq)
        assert seq == []
        assert stats == SortStats()

    def test_generic_elements(self):
        seq = ["pear", "apple", "fig", "apple"]
        bcis_sort(seq)
        assert seq == ["apple", "apple", "fig", "pear"]

    def test_non_list_rejected_before_any_write(self):
        # The sweep scans with a list iterator; another sequence type is
        # refused up front, not left half sorted.
        seq = array("i", [3, 1, 2])
        with pytest.raises(TypeError, match="needs a list"):
            bcis_sort(seq)
        assert seq == array("i", [3, 1, 2])


class TestInsertionSort:
    def test_non_list_rejected_before_any_write(self):
        # The run grows in a list that is copied back at the end; another
        # sequence type is refused up front, not after the sort.
        seq = array("i", [3, 1, 2])
        with pytest.raises(TypeError, match="needs a list"):
            insertion_sort(seq)
        assert seq == array("i", [3, 1, 2])
