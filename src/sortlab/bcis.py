"""Bidirectional conditional insertion sort with operation counting.

The sorter keeps ascending-sorted runs at both ends of the sequence and
grows them inward.  Each outer iteration ("sort trip") fixes the boundary
elements LC and RC as comparators, then sweeps the unsorted window once,
moving items <= LC into the left run and items >= RC into the right run.
Items strictly between the comparators stay put until a later trip.

Elements may be any values with a consistent total order; the sort is in
place and not stable.

Counting convention (shared with :mod:`sortlab.baselines`): the two-sided
test of a scanned item against the (LC, RC) pair counts as one three-way
comparison, both in the sweep and in the guarded pre-scan; every guard
evaluated by the insertion loops counts one; assignments count element
writes to array slots only, with a swap contributing exactly 3.  Each trip
counts one classification per interior item of its window, whichever of
the pre-scan and the sweep makes it.

The insertion counters are those of the paper's linear scan, which shifts
the run one slot per guard.  The kernel performs the first guard and shift
as that scan does; when the next guard also holds, it finds the same stop
index by binary search and moves the run with one slice assignment.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt
from typing import Callable, MutableSequence, Optional

from .stats import SortStats

#: Window span at and above which the guarded pre-scan runs.
PRESCAN_SPAN = 100

TripHook = Callable[[MutableSequence, int, int], None]


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

        # Every interior item is classified once: the pre-scan, when it
        # runs, takes the first `steps`, and each sweep iteration one more,
        # moving i up or sr down by one until i == sr.
        comps += sr - sl - 1

        # Guarded pre-scan: on a wide window, classify the first
        # floor(sqrt(span)) items against the boundaries, swapping anything
        # beyond them onto them.  The sweep starts past the scanned prefix,
        # so those items cannot be inserted during this trip.
        i = sl + 1
        span = sr - sl
        if span >= PRESCAN_SPAN:
            steps = isqrt(span)
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
            if curr >= rc:
                # The slot is refilled from below the right run; that
                # element is unscanned, so i does not advance.  Then curr
                # is inserted into the run seq[sr..last], extending it to
                # sr - 1.
                seq[i] = seq[sr - 1]
                j = sr
                if curr > seq[j]:
                    seq[j - 1] = seq[j]
                    j += 1
                    if j <= last and curr > seq[j]:
                        # Past the first shift, binary search finds the
                        # index the linear scan stops at, and one slice
                        # assignment moves the run.
                        j = bisect_left(seq, curr, j + 1, last + 1)
                        seq[sr:j - 1] = seq[sr + 1:j]
                seq[j - 1] = curr
                # The linear scan's counts: one guard per shift, plus the
                # one that stopped it unless curr went past the whole run.
                comps += j - sr + (j <= last)
                assigns += j - sr + 2
                sr -= 1
            elif curr <= lc:
                # Mirror image: insert into seq[0..sl], extending it to sl + 1.
                seq[i] = seq[sl + 1]
                j = sl
                if curr < seq[j]:
                    seq[j + 1] = seq[j]
                    j -= 1
                    if j >= 0 and curr < seq[j]:
                        j = bisect_right(seq, curr, 0, j) - 1
                        seq[j + 2:sl + 1] = seq[j + 1:sl]
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
