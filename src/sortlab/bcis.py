"""Bidirectional conditional insertion sort with operation counting.

The sorter keeps ascending runs at both ends of the list and grows them
inward.  Each sort trip opens the unsorted window (``_open_trip``), fixing
its boundary items LC and RC as comparators, then sweeps it once
(``_sweep``), moving items <= LC into the left run and items >= RC into
the right run; items strictly between them wait for a later trip.
Elements may be any values with a consistent total order; the sort is in
place and not stable.  The counters are those of the paper's linear scan,
reached by faster paths: README's "Counting convention" states them and
how each path keeps them.

The equal scan compares list slices with copies of the boundary value.  A
list comparison treats identical objects as equal before it calls
``__eq__``; that agrees with ``seq[k] == pivot`` for every reflexive
``==``, which a total order implies (NaN is not one).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count, islice, repeat
from math import isqrt
from operator import gt
from typing import Callable, Optional

from .stats import SortStats

#: Window span at and above which the guarded pre-scan runs.
PRESCAN_SPAN = 100

#: Longest slice the equal scan compares at once, and the most items one
#: right-run merge sorts: each temporary holds at most 32 KB of references.
#: Without the cap a sort of ``sorted`` 10**6 merged half a million items
#: at once and held about 8 MB more.
SLICE_CAP = 4096

TripHook = Callable[[list, int, int], None]


def _merge_stretch(seq: list, i: int, sr: int, last: int, curr, rc, top):
    """Insert curr, then the ascending stretch seq[lo..sr - 1] of items >= RC
    below the right run seq[sr..last], into the run in one step, as the item
    loop would one at a time from the stretch's top down; refill slot i
    from seq[lo - 1].  Return ``(lo, comparisons, assignments)``, or None
    when no stretch of 16 items fits in one merge of at most SLICE_CAP.
    """
    # The run's items below max(top, curr) join the merge; the rest stay.
    m = bisect_left(seq, max(top, curr), sr, last + 1) - sr
    room = min(SLICE_CAP - 1 - m, sr - 1 - i)
    if room < 16:
        return None
    # The first descent below sr - 1, looking no lower than slot i + 1.
    a, b = reversed(seq), reversed(seq)
    a.__setstate__(sr - 2)
    b.__setstate__(sr - 1)
    size = next(compress(count(1), islice(map(gt, a, b), room - 1)), room)
    lo = bisect_left(seq, rc, sr - size, sr)
    ns = sr - lo
    if ns < 16:
        return None
    stretch, below = seq[lo:sr], seq[sr:sr + m]
    # Each item shifts past the run's smaller items, and each of the
    # stretch's also past a smaller curr; count over the shorter side.
    if ns <= m:
        shifts = sum(map(bisect_left, repeat(below), stretch))
    else:
        shifts = ns * m - sum(map(bisect_right, repeat(stretch), below))
    shifts += bisect_left(below, curr) + ns - bisect_right(stretch, curr)
    # Each later item is at most the one before, so only curr and top can
    # pass the whole run, where no guard stops the scan.
    big = seq[last]
    passes = (curr > big) + (top > curr and top > big)
    seq[i] = seq[lo - 1]
    # A stable sort leaves equal keys where the item loop puts them: the
    # stretch's, then curr, then the run's.
    stretch.append(curr)
    stretch += below
    stretch.sort()
    seq[lo - 1:sr + m] = stretch
    return lo, shifts + ns + 1 - passes, shifts + 2 * ns + 2


def _open_trip(seq: list, sl: int, sr: int):
    """Open the trip over the window seq[sl..sr]: the middle exchange, the
    equal scan, the boundary order and the guarded pre-scan.  Return
    ``(i, comparisons, swaps)``, i the first slot for the sweep, or None
    for i when the window holds one value and the sort is done.
    """
    # Bring the window's middle element to the right boundary so runs
    # on pre-ordered input are split instead of swept linearly.
    mid = sl + (sr - sl) // 2
    seq[sr], seq[mid] = seq[mid], seq[sr]
    comps = swaps = 1
    if seq[sl] == seq[sr]:
        # Swap the first item differing from the equal boundaries to
        # sl; if there is none, the window is one value.
        pivot = seq[sl]
        k, step = sl + 1, 16
        while sr - k >= step and seq[k:k + step] == [pivot] * step:
            k += step
            step = min(2 * step, SLICE_CAP)
        while k < sr and seq[k] == pivot:
            k += 1
        if k == sr:
            return None, comps + sr - sl - 1, swaps
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
    return i, comps, swaps


def _sweep(seq: list, sl: int, sr: int, i: int):
    """Sweep the window seq[i..sr - 1] once against LC = seq[sl] and
    RC = seq[sr], inserting items <= LC into the left run and items >= RC
    into the right run, then retire both boundaries.  Return
    ``(sl, sr, comparisons, assignments)`` with the next trip's window.
    """
    comps = assigns = 0
    last = len(seq) - 1
    lc, rc = seq[sl], seq[sr]
    # The left run's top grows in `left`; seq[base + 1..sl] is stale
    # until the write-back.  The older run lies below every window item.
    base, left = sl, [lc]
    it = iter(seq)
    it.__setstate__(i)
    for curr in it:
        if lc < curr < rc:
            continue
        i = last - it.__length_hint__()
        while i < sr and curr >= rc:
            top = seq[sr - 1]
            if top >= rc and sr - i > 16 and rc <= seq[sr - 16] <= top:
                # seq[sr - 16..sr - 1] may be an ascending stretch >= RC,
                # which the item loop would insert next.
                merged = _merge_stretch(seq, i, sr, last, curr, rc, top)
                if merged:
                    lo, c, a = merged
                    comps += c
                    assigns += a
                    sr = lo - 1
                    curr = seq[i]
                    continue
            # Insert curr into the right run, refilling slot i from
            # seq[sr - 1], which is classified next, at this i.
            seq[i] = top
            j = sr
            if curr > seq[j]:
                seq[j - 1] = seq[j]
                j += 1
                if j <= last and curr > seq[j]:
                    j = bisect_left(seq, curr, j + 1, last + 1)
                    seq[sr:j - 1] = seq[sr + 1:j]
            seq[j - 1] = curr
            # The linear scan's counts: one guard per shift, plus the
            # one that stopped it unless curr went past the whole run.
            comps += j - sr + (j <= last)
            assigns += j - sr + 2
            sr -= 1
            curr = top
        if i >= sr:
            break
        if curr <= lc:
            seq[i] = seq[sl + 1]
            sl += 1
            if curr < lc:
                k = bisect_right(left, curr)
                shifts = len(left) - k
                left.insert(k, curr)
                # Past `left`, the older run stops the scan, if any.
                comps += shifts + (k > 0 or base > 0)
                assigns += shifts + 2
            else:
                left.append(curr)
                comps += 1
                assigns += 2
    seq[base:sl + 1] = left
    # LC and RC are now extreme for the shrunken window: retire both.
    return sl + 1, sr - 1, comps, assigns


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
    sl, sr = 0, len(seq) - 1
    while sl < sr:
        trips += 1
        if trip_hook is not None:
            trip_hook(seq, sl, sr)
        i, c, s = _open_trip(seq, sl, sr)
        comps += c
        swaps += s
        if i is None:
            return SortStats(comps, assigns + 3 * swaps, swaps, trips, True)
        sl, sr, c, a = _sweep(seq, sl, sr, i)
        comps += c
        assigns += a
    return SortStats(comps, assigns + 3 * swaps, swaps, trips)
