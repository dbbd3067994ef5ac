"""Instrumented reference sorts: classical insertion sort and
median-of-three quicksort.

Both use the same signature and counting convention as
:mod:`sortlab.bcis` so operation counts are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import MutableSequence

from .stats import SortStats


def insertion_sort(seq: MutableSequence) -> SortStats:
    """Classical insertion sort of seq, ascending, in place.

    One sorted run anchored at the left grows by one element per outer
    iteration.  Shifts count one assignment each; the final placement of
    the key counts one more.  The counters are those of the linear scan;
    past the first shift, the stop index is found by binary search and the
    run moved by one slice assignment.
    """
    comps = 0
    assigns = 0
    for i in range(1, len(seq)):
        key = seq[i]
        j = i - 1
        if key < seq[j]:
            seq[i] = seq[j]
            j -= 1
            if j >= 0 and key < seq[j]:
                j = bisect_right(seq, key, 0, j) - 1
                seq[j + 2:i] = seq[j + 1:i - 1]
        seq[j + 1] = key
        # The linear scan's counts: one guard per shift, plus the one that
        # stopped it unless key went past the whole run.
        comps += i - 1 - j + (j >= 0)
        assigns += i - j
    return SortStats(comps, assigns, 0, max(len(seq) - 1, 0))


def quicksort_mo3(seq: MutableSequence) -> SortStats:
    """Median-of-three quicksort of seq, ascending, in place.

    The pivot of each partition is the median of its first, middle and
    last elements, chosen by sorting those three in place (ties resolved
    toward the lower index).  Partitioning scans stop on elements equal
    to the pivot, which keeps splits balanced on duplicate-heavy input.
    Every exchange, including one of a slot with itself, counts as one
    swap and 3 assignments.
    """
    comps = swaps = trips = 0
    # Pending (lo, hi) ranges, inclusive.  The smaller part of each
    # partition is pushed last, so it is sorted first and the stack stays
    # O(log n).
    stack = [(0, len(seq) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        trips += 1
        if hi - lo == 1:
            comps += 1
            if seq[hi] < seq[lo]:
                seq[lo], seq[hi] = seq[hi], seq[lo]
                swaps += 1
            continue

        mid = lo + (hi - lo) // 2
        comps += 3
        if seq[mid] < seq[lo]:
            seq[lo], seq[mid] = seq[mid], seq[lo]
            swaps += 1
        if seq[hi] < seq[lo]:
            seq[lo], seq[hi] = seq[hi], seq[lo]
            swaps += 1
        if seq[hi] < seq[mid]:
            seq[mid], seq[hi] = seq[hi], seq[mid]
            swaps += 1
        if hi - lo == 2:
            continue

        # Park the pivot at hi-1; seq[lo] and seq[hi] are sentinels.
        seq[mid], seq[hi - 1] = seq[hi - 1], seq[mid]
        swaps += 1
        pivot = seq[hi - 1]
        i = lo + 1
        j = hi - 2
        while True:
            while seq[i] < pivot:
                i += 1
            while pivot < seq[j]:
                j -= 1
            if i >= j:
                break
            seq[i], seq[j] = seq[j], seq[i]
            swaps += 1
            i += 1
            j -= 1
        # Each scan step is one comparison, including the one that stops it.
        comps += (i - lo) + (hi - 1 - j)
        seq[i], seq[hi - 1] = seq[hi - 1], seq[i]
        swaps += 1

        if i - lo < hi - i:
            stack += [(i + 1, hi), (lo, i - 1)]
        else:
            stack += [(lo, i - 1), (i + 1, hi)]
    return SortStats(comps, 3 * swaps, swaps, trips)
