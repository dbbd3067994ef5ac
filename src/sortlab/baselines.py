"""Instrumented reference sorts: classical insertion sort and
median-of-three quicksort.

Both use the same signature and counting convention as
:mod:`sortlab.bcis` so operation counts are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import MutableSequence, Tuple

from .stats import SortStats


def insertion_sort(seq: list) -> SortStats:
    """Classical insertion sort of the list seq, ascending, in place; any
    other type raises ``TypeError`` before anything is written.

    The counters are the linear scan's: a guard and an assignment per shift,
    the stop guard and the key's placement.  The run grows in a second list
    of up to n items, where ``list.insert`` shifts in one ``memmove``.
    """
    if not isinstance(seq, list):
        raise TypeError(f"insertion_sort needs a list, not {type(seq).__name__}")
    comps = assigns = 0
    run = seq[:1]
    for i in range(1, len(seq)):
        key = seq[i]
        k = bisect_right(run, key)
        run.insert(k, key)
        # The linear scan's counts: one guard per shift, plus the one that
        # stopped it unless key went past the whole run.
        comps += i - k + (k > 0)
        assigns += i - k + 1
    seq[:] = run
    return SortStats(comps, assigns, 0, max(len(seq) - 1, 0))


def quicksort_mo3(seq: MutableSequence) -> SortStats:
    """Median-of-three quicksort of seq, ascending, in place.

    The pivot of each partition is the median of its first, middle and
    last elements, chosen by sorting those three in place (ties resolved
    toward the lower index).  Partitioning scans stop on elements equal
    to the pivot, which keeps splits balanced on duplicate-heavy input.
    Every exchange, including one of a slot with itself, counts as one
    swap and 3 assignments.

    A range of more than 17 items that holds one value is not
    partitioned: its items stay where they are, and the counts that its
    partitions would make come from :func:`_one_value`.
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
        before = swaps
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
        # No exchange and seq[lo] not below seq[hi]: the three samples are
        # equal.  If the whole range holds their value, count it.
        if swaps == before and hi - lo > 16 and not seq[lo] < seq[hi]:
            if seq[lo:hi + 1].count(seq[lo]) == hi - lo + 1:
                c, s, t = _one_value(hi - lo + 1)
                comps += c - 3
                swaps += s
                trips += t - 1
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


@lru_cache(maxsize=1024)
def _one_value(m: int) -> Tuple[int, int, int]:
    """(comparisons, swaps, sort trips) of ``quicksort_mo3`` on m equal keys.

    A range of m >= 4 equal keys costs one trip: the median of three (3
    comparisons, no exchange) and the pivot parked at hi - 1 (one swap);
    then i and j each stop at once, one comparison each per step, and
    meet in the middle after s + 1 steps, s = (m - 3) // 2, exchanging
    their pair at each of the first s; then the pivot's exchange into
    slot i.  The parts left and right of the pivot hold (m - 1) // 2 and
    m // 2 keys, so the recursion visits at most two sizes per level,
    O(log m) in all; the cache keeps the 1,024 sizes used last.
    """
    if m < 4:
        return ((0, 0, 0), (0, 0, 0), (1, 0, 1), (3, 0, 1))[m]
    s = (m - 3) // 2
    a = _one_value((m - 1) // 2)
    b = _one_value(m // 2)
    return 2 * s + 5 + a[0] + b[0], s + 2 + a[1] + b[1], 1 + a[2] + b[2]
