"""Bidirectional conditional insertion sort with operation counting.

The sorter keeps ascending runs at both ends of the list and grows them
inward.  Each sort trip opens the unsorted window (``_open_trip``), fixing
its boundary items LC and RC as comparators, then sweeps it once
(``_sweep``), moving items <= LC into the left run and items >= RC into
the right run; items strictly between them wait for a later trip.  On wide
windows of many distinct values a rank index of the window
(``_RankIndex``) lets the sweep visit only the items it moves.
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
from operator import gt, is_not, lt
from typing import Callable, Optional

from .stats import SortStats

#: Window span at and above which the guarded pre-scan runs.
PRESCAN_SPAN = 100

#: Longest slice the equal scan compares at once, and the most items one
#: right-run merge sorts: each temporary holds at most 32 KB of references.
#: Without the cap a sort of ``sorted`` 10**6 merged half a million items
#: at once and held about 8 MB more.
SLICE_CAP = 4096

#: The sort indexes its window by rank (``_RankIndex``) for the rest of the
#: sort once a window of at least INDEX_SPAN items follows a trip that
#: retired less than 1/INDEX_RATE of its window, and the window's pre-scan
#: sample holds no two equal items.  Few distinct values (a repeated sample)
#: or a high retirement rate predict too few trips to repay the index.
INDEX_SPAN = 2048
INDEX_RATE = 16

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
    # The first descent below sr - 1, looking no lower than slot i + 1:
    # gallop down over blocks of 16, 32, ... items that are ascending, each
    # with the stretch's lowest item, then search the first that is not.
    size, step = 1, 16
    while size < room:
        step = min(step, room - size)
        block = seq[sr - size - step:sr - size + 1]
        if block != sorted(block):
            a, b = reversed(seq), reversed(seq)
            a.__setstate__(sr - size - 1)
            b.__setstate__(sr - size)
            size += next(compress(count(), map(gt, a, b)))
            break
        size += step
        step *= 2
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
    ``(i, k, comparisons, swaps)``, i the first slot for the sweep, or None
    for i when the window holds one value and the sort is done, and k the
    slot the equal scan swapped with sl (sl if it found none).
    """
    # Bring the window's middle element to the right boundary so runs
    # on pre-ordered input are split instead of swept linearly.
    mid = sl + (sr - sl) // 2
    seq[sr], seq[mid] = seq[mid], seq[sr]
    comps = swaps = 1
    k = sl
    if seq[sl] == seq[sr]:
        # Swap the first item differing from the equal boundaries to
        # sl; if there is none, the window is one value.
        pivot = seq[sl]
        k, same = sl + 1, [pivot] * 16
        while sr - k >= len(same) and seq[k:k + len(same)] == same:
            k += len(same)
            if len(same) < SLICE_CAP:
                same += same
        while k < sr and seq[k] == pivot:
            k += 1
        if k == sr:
            return None, k, comps + sr - sl - 1, swaps
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
        for j in range(i, i + steps):
            v = seq[j]
            if seq[sr] < v:
                seq[sr], seq[j] = v, seq[sr]
                swaps += 1
            elif seq[sl] > v:
                seq[sl], seq[j] = v, seq[sl]
                swaps += 1
        i += steps
    return i, k, comps, swaps


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
    # Items that each land just below the one before wait, descending, in
    # `run` for one splice at slot pk of `left`, where they all belong.
    base, left, run, pk = sl, [lc], [], -1
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
                if k == pk and (not run or curr < run[-1]):
                    shifts = len(left) - k + len(run)
                    run.append(curr)
                else:
                    if run:
                        left[pk:pk] = run[::-1]
                        run = []
                        k = bisect_right(left, curr)
                    shifts = len(left) - k
                    left.insert(k, curr)
                    pk = k
                # Past `left`, the older run stops the scan, if any.
                comps += shifts + (k > 0 or base > 0)
                assigns += shifts + 2
            else:
                left.append(curr)
                comps += 1
                assigns += 2
    left[pk:pk] = run[::-1]
    seq[base:sl + 1] = left
    # LC and RC are now extreme for the shrunken window: retire both.
    return sl + 1, sr - 1, comps, assigns


class _RankIndex:
    """The window of a sort indexed in one sorted order of its values:
    ``order`` maps rank to position, ``rank`` maps position - ``off`` to
    rank, and ``vals`` rank to value.  The window's items hold the ranks
    ``lo..hi``; the entries of retired items are stale and never read.
    """

    def __init__(self, seq: list, sl: int, sr: int):
        self.off, self.lo, self.hi = sl, 0, sr - sl
        # Positions and ranks share one int object per value: a third of
        # the index's memory.
        ints = list(range(sr + 1))
        self.order = order = sorted(ints[sl:], key=seq.__getitem__)
        self.vals = list(map(seq.__getitem__, order))
        self.rank = rank = [0] * (sr - sl + 1)
        for r, p in zip(ints, order):
            rank[p - sl] = r

    def reopen(self, seq: list, sl: int, sr: int, i: int, k: int) -> None:
        """Re-rank the items that the trip's opening moved among the slots
        sl, sr, the middle, the equal scan's k and the pre-scanned prefix.
        """
        order, rank, off = self.order, self.rank, self.off
        # A prefix slot whose item is still the object ``vals`` holds for
        # its rank keeps a valid rank: nothing moved it, or an item of the
        # same value took its place.
        moved = {sl, sr, sl + (sr - sl) // 2, k}
        moved.update(compress(range(sl + 1, i), map(
            is_not, seq[sl + 1:i], map(self.vals.__getitem__, rank[sl + 1 - off:i - off]))))
        ranks = sorted([rank[p - off] for p in moved])
        # Items of one value are interchangeable, so any ties fit.
        for p, r in zip(sorted(moved, key=seq.__getitem__), ranks):
            rank[p - off] = r
            order[r] = p

    def sweep(self, seq: list, sl: int, sr: int, i: int):
        """``_sweep``, visiting only the slots of the window's items <= LC
        or >= RC, low to high, and not the items it passes."""
        comps = assigns = 0
        last = len(seq) - 1
        lc, rc = seq[sl], seq[sr]
        order, rank, off = self.order, self.rank, self.off
        # The window's items <= LC hold the ranks lo..a - 1, those >= RC
        # the ranks b..hi.
        a = bisect_right(self.vals, lc, self.lo, self.hi + 1)
        b = bisect_left(self.vals, rc, a, self.hi + 1)
        # The pre-scanned items that tie with LC or RC stay in the window.
        pre = sorted(rank[sl + 1 - off:i - off])
        ties_l = pre[:bisect_left(pre, a)]
        ties_r = pre[bisect_left(pre, b):]
        # Their slots from i up, low to high: LC's and the prefix's lie below.
        outs = sorted(order[self.lo:a] + order[b:self.hi + 1])
        del outs[:bisect_left(outs, i)]
        base, left = sl, [lc]
        # The insertions are ``_sweep``'s, and each refill of slot i moves
        # its item's map entries along.  Slots above i leave the window
        # only from the top, as sr falls, so the first visited slot at or
        # above sr, RC's own at the latest, ends the sweep, as i == sr
        # ends ``_sweep``.
        for i in outs:
            curr = seq[i]
            while i < sr and curr >= rc:
                top = seq[sr - 1]
                if top >= rc and sr - i > 16 and rc <= seq[sr - 16] <= top:
                    merged = _merge_stretch(seq, i, sr, last, curr, rc, top)
                    if merged:
                        lo, c, m = merged
                        comps += c
                        assigns += m
                        sr = lo - 1
                        r = rank[sr - off]
                        rank[i - off] = r
                        order[r] = i
                        curr = seq[i]
                        continue
                seq[i] = top
                j = sr
                if curr > seq[j]:
                    seq[j - 1] = seq[j]
                    j += 1
                    if j <= last and curr > seq[j]:
                        j = bisect_left(seq, curr, j + 1, last + 1)
                        seq[sr:j - 1] = seq[sr + 1:j]
                seq[j - 1] = curr
                comps += j - sr + (j <= last)
                assigns += j - sr + 2
                sr -= 1
                r = rank[sr - off]
                rank[i - off] = r
                order[r] = i
                curr = top
            if i >= sr:
                break
            if curr <= lc:
                sl += 1
                seq[i] = seq[sl]
                r = rank[sl - off]
                rank[i - off] = r
                order[r] = i
                if curr < lc:
                    # No falling runs here: inputs with many retire at
                    # least half of each window, so the index never builds.
                    k = bisect_right(left, curr)
                    shifts = len(left) - k
                    left.insert(k, curr)
                    comps += shifts + (k > 0 or base > 0)
                    assigns += shifts + 2
                else:
                    left.append(curr)
                    comps += 1
                    assigns += 2
        seq[base:sl + 1] = left
        # The next window holds the ranks a..b - 1 and the prefix ties;
        # give those the inner ranks of their value, next to that block.
        self.lo = a - len(ties_l)
        self.hi = b + len(ties_r) - 1
        self._settle(ties_l, self.lo)
        self._settle(ties_r, b)
        return sl + 1, sr - 1, comps, assigns

    def _settle(self, ties: list, start: int) -> None:
        """Move the window items of ranks ``ties``, all of one value, onto
        the ranks start, start + 1, ..., which retired items of that value
        give up."""
        order, rank, off = self.order, self.rank, self.off
        targets = range(start, start + len(ties))
        free = [t for t in targets if t not in ties]
        for r, t in zip([r for r in ties if r not in targets], free):
            p = order[r]
            order[t] = p
            rank[p - off] = t


def bcis_sort(seq: list, trip_hook: Optional[TripHook] = None) -> SortStats:
    """Sort the list seq ascending in place and return its counters; any
    other type raises ``TypeError`` before anything is written.

    ``trip_hook``, when given, is called as ``trip_hook(seq, sl, sr)`` at
    the top of every sort trip, before the trip mutates anything;
    ``seq[sl..sr]`` (0-based, inclusive) is the unsorted window,
    ``seq[:sl]`` and ``seq[sr + 1:]`` the two runs.  The hook must not
    write to seq: the rank index follows the sort's own moves only.
    """
    if not isinstance(seq, list):
        raise TypeError(f"bcis_sort needs a list, not {type(seq).__name__}")
    comps = assigns = swaps = trips = 0
    sl, sr = 0, len(seq) - 1
    # The first trip counts as following one that retired everything.
    index, sweep, width, retired = None, _sweep, len(seq), len(seq)
    while sl < sr:
        trips += 1
        if trip_hook is not None:
            trip_hook(seq, sl, sr)
        i, k, c, s = _open_trip(seq, sl, sr)
        comps += c
        swaps += s
        if i is None:
            return SortStats(comps, assigns + 3 * swaps, swaps, trips, True)
        if index is not None:
            index.reopen(seq, sl, sr, i, k)
        elif sr - sl + 1 >= INDEX_SPAN and retired * INDEX_RATE < width:
            sample = sorted(seq[sl + 1:i])
            if all(map(lt, sample, islice(sample, 1, None))):
                index = _RankIndex(seq, sl, sr)
                sweep = index.sweep
        width = sr - sl + 1
        sl, sr, c, a = sweep(seq, sl, sr, i)
        comps += c
        assigns += a
        retired = width - (sr - sl + 1)
    return SortStats(comps, assigns + 3 * swaps, swaps, trips)
