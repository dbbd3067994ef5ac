"""Python-step budgets for BCIS's fast paths.

``bcis_sort`` reports the counters of the paper's linear scan but
reaches them through faster paths: the galloping equal scan, the left
run's list buffer and its spliced falling runs, the right run's slice
shift and the stretch merge work at C speed, and the rank-indexed sweep
skips the items a trip leaves in place.  A path that stops running keeps
every counter and only slows the sort, so no counter test can see it.
These tests count the sort's Python steps instead: the ``line`` events
that ``sys.settrace`` reports in frames of ``sortlab/bcis.py``.  The
count is deterministic for a given input and Python version.  Paths that
differ only in the C functions they call, not in Python steps, are
pinned by the calls those frames make to each C function, which
``sys.setprofile`` reports.
"""

import sys
from collections import Counter

import pytest

from sortlab import DatasetSpec, bcis_sort, generate

#: Line events allowed per item on each input, at least twice the count
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
#: gallop (402,415 events).
BUDGETS = [
    (DatasetSpec("equal", 10**5), 0.1),  # 3,544
    (DatasetSpec("sorted", 10**5), 7),  # 304,380
    (DatasetSpec("reverse", 10**4), 40),  # 210,734
    (DatasetSpec("uniform", 2**12, seed=1), 60),  # 131,155
    (DatasetSpec("uniform", 2**14, seed=1), 60),  # 521,069
    (DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), 100),  # 498,238
    ([0] * 5000 + [1] * 5000, 15),  # 71,201
]


def _budget_id(spec):
    if isinstance(spec, DatasetSpec):
        return f"{spec.kind}-{spec.n}"
    return f"zeros-ones-{len(spec)}"


def line_events(seq):
    """Sort seq with ``bcis_sort`` and return the line events in its module."""
    path = bcis_sort.__code__.co_filename
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
        bcis_sort(seq)
    finally:
        sys.settrace(previous)
    return events


@pytest.mark.parametrize(
    "spec, per_item", [pytest.param(s, b, id=_budget_id(s)) for s, b in BUDGETS]
)
def test_line_events_within_budget(spec, per_item):
    data = generate(spec) if isinstance(spec, DatasetSpec) else list(spec)
    assert line_events(data) <= per_item * len(data)


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


def c_calls(seq):
    """Sort seq with ``bcis_sort`` and return a Counter of the calls that
    frames of its module make to C functions, by qualified name."""
    path = bcis_sort.__code__.co_filename
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == path:
            calls[arg.__qualname__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        bcis_sort(seq)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize(
    "spec, name, most",
    [pytest.param(s, f, m, id=f"{s.kind}-{s.n}-{f}") for s, f, m in C_BUDGETS],
)
def test_c_calls_within_budget(spec, name, most):
    assert c_calls(generate(spec))[name] <= most
