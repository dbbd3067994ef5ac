"""Bidirectional conditional insertion sort with operation counting.

The sorter keeps ascending-sorted runs at both ends of the list and grows
them inward.  Each outer iteration ("sort trip") fixes the boundary
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
index by binary search and moves the run with one slice assignment.  The
sweep scans with the list's iterator, seeked once per trip, and tests no
bound: ``seq[sr]``, the right run's minimum, is never below RC, even after
right insertions, so the scan stops at ``sr`` at the latest.  A right
insertion refills slot ``i`` with an unscanned item, classified at once,
so the iterator, standing at ``i + 1``, is never re-seeked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt
from typing import Callable, Optional

from .stats import SortStats

#: Window span at and above which the guarded pre-scan runs.
PRESCAN_SPAN = 100

TripHook = Callable[[list, int, int], None]


def bcis_sort(seq: list, trip_hook: Optional[TripHook] = None) -> SortStats:
    """Sort the list seq ascending in place and return its counters; any
    other type raises ``TypeError`` before anything is written.

    ``trip_hook``, when given, is called as ``trip_hook(seq, sl, sr)`` at
    the top of every sort trip, before the trip mutates anything;
    ``seq[sl..sr]`` (0-based, inclusive) is the unsorted window,
    ``seq[:sl]`` and ``seq[sr + 1:]`` the two runs.
    """
    if not isinstance(seq, list):
        raise TypeError(f"bcis_sort needs a list, not {type(seq).__name__}")
    comps = assigns = swaps = trips = 0
    all_equal = False
    last = len(seq) - 1
    sl, sr = 0, last
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
            # Swap the first item differing from the equal boundaries to
            # sl; if there is none, the window is one value: done.
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

        # Every interior item is classified once: the pre-scan takes the
        # first `steps`, and each sweep step one more, until i == sr.
        comps += sr - sl - 1

        # Guarded pre-scan: on a wide window, swap any of the first
        # floor(sqrt(span)) items beyond the boundaries onto them.  The sweep
        # starts past them, so they cannot be inserted during this trip.
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

        lc, rc = seq[sl], seq[sr]
        # No bound test: seq[sr] >= rc stops the scan at sr at the latest.
        it = iter(seq)
        it.__setstate__(i)
        for curr in it:
            if lc < curr < rc:
                continue
            i = last - it.__length_hint__()
            while i < sr and curr >= rc:
                # Insert curr into the right run, refilling slot i from
                # seq[sr - 1], which is classified next, at this i.
                seq[i] = seq[sr - 1]
                j = sr
                if curr > seq[j]:
                    seq[j - 1] = seq[j]
                    j += 1
                    if j <= last and curr > seq[j]:
                        # Past the first shift, bisect finds the linear
                        # scan's stop index; one slice moves the run.
                        j = bisect_left(seq, curr, j + 1, last + 1)
                        seq[sr:j - 1] = seq[sr + 1:j]
                seq[j - 1] = curr
                # The linear scan's counts: one guard per shift, plus the
                # one that stopped it unless curr went past the whole run.
                comps += j - sr + (j <= last)
                assigns += j - sr + 2
                sr -= 1
                curr = seq[i]
            if i >= sr:
                break
            if curr <= lc:
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

        # LC and RC are now extreme for the shrunken window: retire both.
        sl += 1
        sr -= 1

    return SortStats(comps, assigns + 3 * swaps, swaps, trips, all_equal)
