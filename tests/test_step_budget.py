"""Python-step budgets for the sorts' fast paths.

``bcis_sort`` reports the counters of the paper's linear scan but
reaches them through faster paths: the galloping equal scan, the left
run's list buffer and its spliced falling runs, the right run's slice
shift and the stretch merge work at C speed, and the rank-indexed sweep
skips the items a trip leaves in place.  ``quicksort_mo3`` counts its
ranges of one value without partitioning them.  A path that stops
running keeps every counter and only slows the sort, so no counter test
can see it.  These tests count the sort's Python steps instead: the
``line`` events that ``sys.settrace`` reports in frames of the sort's own
module.  The count is deterministic for a given input and Python
version.  Paths that differ only in the C functions they call, not in
Python steps, are pinned by the calls those frames make to each C
function, which ``sys.setprofile`` reports, or by the comparisons that
keys of a counting class see.  ``datagen``'s bulk draws are pinned the
same way, by the C calls that pick their words.
"""

import random
import sys
from collections import Counter

import pytest

from sortlab import DatasetSpec, bcis_sort, generate, quicksort_mo3

#: (sort, input, line events allowed per item), at least twice the count
#: measured on Python 3.11 (in the comment): the gallop keeps ``equal``
#: far below one event per item, the stretch merge ``sorted``, the list
#: buffer and the slice shift ``reverse``, and ``k_distinct`` holds runs
#: of keys equal to LC and RC.  On ``uniform`` from 2**12 up the rank
#: index lets each trip visit only the items it moves; the plain sweep,
#: which steps past every window item, takes 358,790 events at 2**12 and
#: 2,735,029 at 2**14, over both bounds.  On zeros before ones the
#: stretch merge meets stretches of items equal to RC; a merge that set a
#: stretch's lower end above them (``bisect_right``) would merge none,
#: and leave every right insertion to the item loop after a failed
#: gallop (402,415 events).  Quicksort counts a range of one value
#: without partitioning it: partitioned, ``equal`` 10**5 takes 6,565,406
#: events, 5-distinct 10**5 6,313,350, and 18 equal keys, one item past
#: the threshold, 304.  The counts are those of a process whose
#: quicksort has not met these sizes before: ``_one_value`` caches the
#: counts of the sizes it has seen.
BUDGETS = [
    (bcis_sort, DatasetSpec("equal", 10**5), 0.1),  # 3,544
    (bcis_sort, DatasetSpec("sorted", 10**5), 7),  # 304,380
    (bcis_sort, DatasetSpec("reverse", 10**4), 40),  # 210,734
    (bcis_sort, DatasetSpec("uniform", 2**12, seed=1), 60),  # 131,155
    (bcis_sort, DatasetSpec("uniform", 2**14, seed=1), 60),  # 521,069
    (bcis_sort, DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), 100),  # 498,238
    (bcis_sort, [0] * 5000 + [1] * 5000, 15),  # 71,201
    (quicksort_mo3, DatasetSpec("equal", 10**5), 0.004),  # 172
    (quicksort_mo3, DatasetSpec("k_distinct", 10**5, seed=1, k_param=5), 32),  # 1,572,810
    (quicksort_mo3, [0] * 18, 5.5),  # 49
]


def _budget_id(sort, spec):
    prefix = "" if sort is bcis_sort else "qs-"
    if isinstance(spec, DatasetSpec):
        return f"{prefix}{spec.kind}-{spec.n}"
    if len(set(spec)) == 1:
        return f"{prefix}one-value-{len(spec)}"
    return f"{prefix}zeros-ones-{len(spec)}"


def line_events(sort, seq):
    """Sort seq with ``sort`` and return the line events in its module."""
    path = sort.__code__.co_filename
    events = 0

    def lines(frame, event, arg):
        nonlocal events
        events += event == "line"
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        sort(seq)
    finally:
        sys.settrace(previous)
    return events


@pytest.mark.parametrize(
    "sort, spec, per_item",
    [pytest.param(*row, id=_budget_id(*row[:2])) for row in BUDGETS],
)
def test_line_events_within_budget(sort, spec, per_item):
    data = generate(spec) if isinstance(spec, DatasetSpec) else list(spec)
    assert line_events(sort, data) <= per_item * len(data)


#: (input, C function, most calls allowed), at least twice the count
#: measured on Python 3.11 (in the comment).  On ``reverse`` the left
#: insertions fall, each just below the one before, and are spliced into
#: the left run once per run, not inserted one by one (9,834 calls that
#: way).  On ``k_distinct`` the right run's one-shift path takes most
#: insertions without a bisect (5,209 with one per insertion), and keys
#: equal to LC are appended to the left run (4,646 inserts without that).
C_BUDGETS = [
    (DatasetSpec("reverse", 10**4), "list.insert", 40),  # 16
    (DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), "bisect_left", 1400),  # 697
    (DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), "list.insert", 100),  # 41
]


def c_calls(func, *args):
    """Call ``func(*args)`` and return a Counter of the calls that frames
    of its module make to C functions, by qualified name."""
    path = func.__code__.co_filename
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == path:
            calls[arg.__qualname__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        func(*args)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize(
    "spec, name, most",
    [pytest.param(s, f, m, id=f"{s.kind}-{s.n}-{f}") for s, f, m in C_BUDGETS],
)
def test_c_calls_within_budget(spec, name, most):
    assert c_calls(bcis_sort, generate(spec))[name] <= most


#: (input, ``bytes.translate`` calls per round of draws).  ``_below``
#: picks each round's words by translating their top bytes into a keep
#: mask, and below 2**8 reads the values from the top bytes through a
#: second table; per-word predicate calls (``filter``) or values taken
#: from the words make fewer.  50 keeps no ties; 1,001's limit has low
#: bits, so about one word in 256 is compared whole (412 measured on
#: Python 3.11), and a mask that sent every word to that comparison
#: would make one ``int.from_bytes`` call per word.
DRAWS = [
    (DatasetSpec("uniform", 2**14, seed=1), 1),
    (DatasetSpec("k_distinct", 10**5, seed=1, k_param=50), 2),
    (DatasetSpec("k_distinct", 10**5, seed=1, k_param=1001), 1),
]


@pytest.mark.parametrize(
    "spec, per_round",
    [pytest.param(s, r, id=f"{s.kind}-{s.n}-{s.k_param}") for s, r in DRAWS],
)
def test_draws_pass_through_the_byte_mask(spec, per_round):
    calls = c_calls(generate, spec)
    rounds = calls["Random.getrandbits"]
    assert rounds > 0
    assert calls["bytes.translate"] == per_round * rounds
    assert calls["int.from_bytes"] <= 2 * spec.n / 256


class Key:
    """An int key whose six rich comparisons each add one to ``tally[0]``,
    so comparisons made inside C functions are counted too."""

    __slots__ = ("v", "tally")

    def __init__(self, v, tally):
        self.v, self.tally = v, tally

    def __lt__(self, other):
        self.tally[0] += 1
        return self.v < other.v

    def __le__(self, other):
        self.tally[0] += 1
        return self.v <= other.v

    def __gt__(self, other):
        self.tally[0] += 1
        return self.v > other.v

    def __ge__(self, other):
        self.tally[0] += 1
        return self.v >= other.v

    def __eq__(self, other):
        self.tally[0] += 1
        return self.v == other.v

    def __ne__(self, other):
        self.tally[0] += 1
        return self.v != other.v


def test_key_comparisons_within_budget():
    # sorted 10**4 with 1% of its items exchanged in random pairs: most
    # ascending stretches merged into the right run are shorter than the
    # part of the run they merge with (ns <= m), and the merge counts the
    # shifts by one bisect per stretch item, not one per run item.
    # Measured on Python 3.11: 203,000 comparisons; with one bisect per
    # run item on every merge, 370,932.  That mutant passes the line and
    # C-call budgets: only bisect's comparisons in C tell the two apart.
    n = 10**4
    rng = random.Random(0)
    values = list(range(n))
    for _ in range(n // 100):
        a, b = rng.randrange(n), rng.randrange(n)
        values[a], values[b] = values[b], values[a]
    tally = [0]
    keys = [Key(v, tally) for v in values]
    bcis_sort(keys)
    assert [k.v for k in keys] == sorted(values)
    assert tally[0] <= 1.5 * 203000
