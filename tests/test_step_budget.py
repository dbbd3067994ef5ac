"""Python-step budgets for BCIS's fast paths.

``bcis_sort`` reports the counters of the paper's linear scan but reaches
them through paths that do their work at C speed: the galloping equal
scan, the left run's list buffer, the right run's slice shift and the
stretch merge.  A path that stops running keeps every counter and only
slows the sort, so no counter test can see it.  These tests count the
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
#: of keys equal to LC and RC.
BUDGETS = [
    (DatasetSpec("equal", 10**5), 0.1),  # 3,534
    (DatasetSpec("sorted", 10**5), 7),  # 302,779
    (DatasetSpec("reverse", 10**4), 40),  # 180,789
    (DatasetSpec("uniform", 2**12, seed=1), 180),  # 358,790
    (DatasetSpec("k_distinct", 10**4, seed=1, k_param=50), 100),  # 479,318
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
