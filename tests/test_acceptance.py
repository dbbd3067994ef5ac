"""Acceptance gate: the criteria that take seconds to minutes, one test each.

These are the slow criteria (``SLOW`` in ``test_gate.py``); the fast ones
run in ``test_gate.py``, in the fast suite.
"""

import re

import pytest

from test_gate import GATE_LINES, SLOW, each_criterion


@pytest.fixture(scope="module")
def cache():
    """One gate run's cache, so #9 reuses #8's insertion-sort means."""
    return {}


def _assert_timing_tables(detail):
    header, *rows = detail.split("\n")
    assert header == "bcis/qs wall-time ratios (machine-dependent, informational):"
    cells = [("uniform", n, 5) for n in (64, 128, 256, 512, 1024, 1400)]
    cells += [("k_distinct(k=50)", n, t) for n, t in ((10**4, 5), (10**5, 5), (10**6, 3))]
    assert len(rows) == len(cells)
    for row, (label, n, trials) in zip(rows, cells):
        pattern = (rf"    {re.escape(label)} +n={n} +bcis/qs time = \d+\.\d{{3}}"
                   rf"  \(medians over {trials} trials, ns: \d+ / \d+\)")
        assert re.fullmatch(pattern, row), row


@each_criterion(SLOW)
def test_criterion(check, cache):
    result = check(cache)
    assert result.passed, result.line()
    if result.report_only:
        # #11's wall times are machine-dependent; only its format is pinned.
        _assert_timing_tables(result.detail)
    else:
        assert result.line() == GATE_LINES[result.number]
