"""The kernels that ``bcis_sort``, ``insertion_sort`` and ``quicksort_mo3``
had before they reached their counters by faster paths: the linear scans
that BCIS and insertion sort had before they found each stop index by
binary search, and quicksort's partition loop before its ranges of one
value were counted by a closed form.

Test-only reference: each insertion here shifts one slot per guard, and
quicksort partitions every range, so the counters these kernels return
describe comparisons and writes they really perform.  The production
kernels must match them in output, in all five counters and, for BCIS,
in the window and array state that ``trip_hook`` sees.  The BCIS kernel
here still tallies each classification as the pre-scan or the sweep
makes it, and scans its window by index with a bound test, so it is the
independent check of the production kernel's one count per trip window
and of its bound-free iterator scan.
"""

from __future__ import annotations

from math import isqrt
from typing import MutableSequence, Optional

from sortlab.bcis import PRESCAN_SPAN, TripHook
from sortlab.stats import SortStats


def bcis_sort(seq: MutableSequence, trip_hook: Optional[TripHook] = None) -> SortStats:
    """Sort seq ascending in place and return its counters.

    ``trip_hook``, when given, is called as ``trip_hook(seq, sl, sr)`` at
    the top of every sort trip, before the trip mutates anything;
    ``seq[sl..sr]`` (0-based, inclusive) is the unsorted window,
    ``seq[:sl]`` and ``seq[sr + 1:]`` the two runs.
    """
    comps = assigns = swaps = trips = 0
    all_equal = False
    last = len(seq) - 1
    sl = 0
    sr = last
    while sl < sr:
        trips += 1
        if trip_hook is not None:
            trip_hook(seq, sl, sr)

        # Bring the window's middle element to the right boundary so runs
        # on pre-ordered input are split instead of swept linearly.
        mid = sl + (sr - sl) // 2
        seq[sr], seq[mid] = seq[mid], seq[sr]
        swaps += 1

        comps += 1
        if seq[sl] == seq[sr]:
            # Look for an item differing from the equal boundaries and
            # swap the first one to sl; if there is none the window is one
            # repeated value and the sort is done.
            pivot = seq[sl]
            k = sl + 1
            while k < sr and seq[k] == pivot:
                k += 1
            if k == sr:
                comps += sr - sl - 1
                all_equal = True
                break
            comps += k - sl
            seq[sl], seq[k] = seq[k], seq[sl]
            swaps += 1
        comps += 1
        if seq[sl] > seq[sr]:
            seq[sl], seq[sr] = seq[sr], seq[sl]
            swaps += 1

        # Guarded pre-scan: on a wide window, classify the first
        # floor(sqrt(span)) items against the boundaries, swapping anything
        # beyond them onto them.  The sweep starts past the scanned prefix,
        # so those items cannot be inserted during this trip.
        i = sl + 1
        span = sr - sl
        if span >= PRESCAN_SPAN:
            steps = isqrt(span)
            comps += steps
            for k in range(i, i + steps):
                v = seq[k]
                if seq[sr] < v:
                    seq[sr], seq[k] = v, seq[sr]
                    swaps += 1
                elif seq[sl] > v:
                    seq[sl], seq[k] = v, seq[sl]
                    swaps += 1
            i += steps

        lc = seq[sl]
        rc = seq[sr]
        while i < sr:
            curr = seq[i]
            comps += 1  # one three-way classification against (lc, rc)
            if curr >= rc:
                # The slot is refilled from below the right run; that
                # element is unscanned, so i does not advance.  Then curr
                # is inserted into the run seq[sr..last], extending it to
                # sr - 1.
                seq[i] = seq[sr - 1]
                j = sr
                while j <= last and curr > seq[j]:
                    seq[j - 1] = seq[j]
                    j += 1
                seq[j - 1] = curr
                # One guard per shift, plus the one that stopped the loop
                # unless curr went past the whole run.
                comps += j - sr + (j <= last)
                assigns += j - sr + 2
                sr -= 1
            elif curr <= lc:
                # Mirror image: insert into seq[0..sl], extending it to sl + 1.
                seq[i] = seq[sl + 1]
                j = sl
                while j >= 0 and curr < seq[j]:
                    seq[j + 1] = seq[j]
                    j -= 1
                seq[j + 1] = curr
                comps += sl - j + (j >= 0)
                assigns += sl - j + 2
                sl += 1
                i += 1
            else:
                i += 1

        # LC and RC are now extreme for the shrunken window: retire both.
        sl += 1
        sr -= 1

    return SortStats(comps, assigns + 3 * swaps, swaps, trips, all_equal)


def insertion_sort(seq: MutableSequence) -> SortStats:
    """Classical insertion sort of seq, ascending, in place.

    One sorted run anchored at the left grows by one element per outer
    iteration.  Shifts count one assignment each; the final placement of
    the key counts one more.
    """
    comps = 0
    assigns = 0
    for i in range(1, len(seq)):
        key = seq[i]
        j = i - 1
        while j >= 0 and key < seq[j]:
            seq[j + 1] = seq[j]
            j -= 1
        seq[j + 1] = key
        # One guard per shift, plus the one that stopped the loop unless
        # key went past the whole run.
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
