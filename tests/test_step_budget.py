"""Python-step budgets for BCIS's fast paths.

``bcis_sort`` reports the counters of the paper's linear scan but reaches
them through faster paths: the galloping equal scan, the left run's list
buffer, the right run's slice shift and the stretch merge work at C
speed, and the rank-indexed sweep skips the items a trip leaves in place.
A path that stops running keeps every counter and only slows the sort,
so no counter test can see it.  These tests count the
sort's Python steps instead: the ``line`` events that ``sys.settrace``
reports in frames of ``sortlab/bcis.py``.  The count is deterministic for
a given input and Python version.
"""

import sys

import pytest

from sortlab import DatasetSpec, bcis_sort, generate

#: Line events allowed per item on each input, at least twice the count
#: measured on Python 3.11 (in the comment): the gallop keeps ``equal``
#: far below one event per item, the stretch merge ``sorted``, the list
#: buffer and the slice shift ``reverse``, and ``k_distinct`` holds runs
#: of keys equal to LC and RC.  On ``uniform`` from 2**12 up the rank
#: index lets each trip visit only the items it moves; the plain sweep,
#: which steps past every window item, takes 358,790 events at 2**12 and
#: 2,735,029 at 2**14, over both bounds.
BUDGETS = [
    (DatasetSpec("equal", 10**5), 0.1),  # 3,536
    (DatasetSpec("sorted", 10**5), 7),  # 302,855
    (DatasetSpec("reverse", 10**4), 40),  # 180,980
    (DatasetSpec("uniform", 2**12, seed=1), 60),  # 113,892
    (DatasetSpec("uniform", 2**14, seed=1), 60),  # 447,444
    (DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), 100),  # 479,478
]


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
    "spec, per_item", [pytest.param(s, b, id=f"{s.kind}-{s.n}") for s, b in BUDGETS]
)
def test_line_events_within_budget(spec, per_item):
    assert line_events(generate(spec)) <= per_item * spec.n
