"""Instrumented reference sorts: classical insertion sort and
median-of-three quicksort.

Both use the same 1-based bounds and counting convention as
:mod:`sortlab.bcis` so operation counts are directly comparable.
"""

from __future__ import annotations

from typing import MutableSequence, Optional

from .stats import SortStats
from .bcis import swap


def _check_range(seq: MutableSequence, left: int, right: int) -> None:
    if left < 1 or right > len(seq):
        raise IndexError(
            f"range ({left}, {right}) out of bounds for length {len(seq)}"
        )


def insertion_sort(
    seq: MutableSequence,
    left: int = 1,
    right: Optional[int] = None,
    stats: Optional[SortStats] = None,
) -> SortStats:
    """Classical insertion sort of seq[left..right], ascending, in place.

    One sorted run anchored at the left grows by one element per outer
    iteration.  Shifts count one assignment each; the final placement of
    the key counts one more.
    """
    if stats is None:
        stats = SortStats()
    if right is None:
        right = len(seq)
    _check_range(seq, left, right)
    comps = 0
    assigns = 0
    trips = 0
    for i in range(left + 1, right + 1):
        trips += 1
        key = seq[i - 1]
        j = i - 1
        while j >= left:
            comps += 1
            if key < seq[j - 1]:
                seq[j] = seq[j - 1]
                assigns += 1
                j -= 1
            else:
                break
        seq[j] = key
        assigns += 1
    stats.comparisons += comps
    stats.assignments += assigns
    stats.sort_trips += trips
    return stats


def quicksort_mo3(
    seq: MutableSequence,
    left: int = 1,
    right: Optional[int] = None,
    stats: Optional[SortStats] = None,
) -> SortStats:
    """Median-of-three quicksort of seq[left..right], ascending, in place.

    The pivot of each partition is the median of its first, middle and
    last elements, chosen by sorting those three in place (ties resolved
    toward the lower index).  Partitioning scans stop on elements equal
    to the pivot, which keeps splits balanced on duplicate-heavy input.
    """
    if stats is None:
        stats = SortStats()
    if right is None:
        right = len(seq)
    _check_range(seq, left, right)
    _qsort(seq, left, right, stats)
    return stats


def _qsort(seq: MutableSequence, lo: int, hi: int, stats: SortStats) -> None:
    # Iterates on the larger partition and recurses into the smaller, so
    # the stack stays O(log n).
    while lo < hi:
        size = hi - lo + 1
        if size == 2:
            stats.sort_trips += 1
            stats.comparisons += 1
            if seq[hi - 1] < seq[lo - 1]:
                swap(seq, lo, hi, stats)
            return

        stats.sort_trips += 1
        mid = lo + (hi - lo) // 2
        stats.comparisons += 1
        if seq[mid - 1] < seq[lo - 1]:
            swap(seq, lo, mid, stats)
        stats.comparisons += 1
        if seq[hi - 1] < seq[lo - 1]:
            swap(seq, lo, hi, stats)
        stats.comparisons += 1
        if seq[hi - 1] < seq[mid - 1]:
            swap(seq, mid, hi, stats)
        if size == 3:
            return

        # Park the pivot at hi-1; seq[lo] and seq[hi] are sentinels.
        swap(seq, mid, hi - 1, stats)
        pivot = seq[hi - 2]
        i = lo
        j = hi - 1
        comps = 0
        while True:
            while True:
                i += 1
                comps += 1
                if not seq[i - 1] < pivot:
                    break
            while True:
                j -= 1
                comps += 1
                if not pivot < seq[j - 1]:
                    break
            if i >= j:
                break
            swap(seq, i, j, stats)
        stats.comparisons += comps
        swap(seq, i, hi - 1, stats)

        if i - lo < hi - i:
            _qsort(seq, lo, i - 1, stats)
            lo = i + 1
        else:
            _qsort(seq, i + 1, hi, stats)
            hi = i - 1
