"""Acceptance gate: runs every binding criterion at its stated tolerance.

The full gate is deliberately heavy (instrumented quadratic baselines and
20-seed sweeps); expect several minutes.  Run with ``pytest -s`` to see
the per-criterion PASS/FAIL lines as they complete.
"""

import pytest

from sortlab import SortStats, acceptance, bench


@pytest.fixture(scope="module")
def results():
    out = {}
    for result in acceptance.run_acceptance(emit=print):
        out[result.number] = result
    return out


def _assert(results, number):
    result = results[number]
    assert result.passed, result.line()


def test_criterion_01_correctness(results):
    _assert(results, 1)


def test_criterion_02_all_equal_linearity(results):
    _assert(results, 2)


def test_criterion_03_sorted_bound(results):
    _assert(results, 3)


def test_criterion_04_reverse_bound(results):
    _assert(results, 4)


def test_criterion_05_worst_construction(results):
    _assert(results, 5)


def test_criterion_06_best_construction(results):
    _assert(results, 6)


def test_criterion_07_average_scaling(results):
    _assert(results, 7)


def test_criterion_08_insertion_sort_fidelity(results):
    _assert(results, 8)


def test_criterion_09_count_ratio(results):
    _assert(results, 9)


def test_criterion_10_cost_models(results):
    _assert(results, 10)


def test_criterion_11_timing_tables_reported(results):
    # report-only: machine-dependent wall time is informational
    result = results[11]
    assert result.report_only
    assert result.detail


def test_criterion_12_determinism(results):
    _assert(results, 12)


def test_gate_checks_the_multiset(monkeypatch):
    def sorted_but_lossy(seq):
        seq.sort()
        seq[0] = seq[1]  # still sorted, but the smallest item is lost
        return SortStats()

    monkeypatch.setitem(bench.ALGORITHMS, "bcis", sorted_but_lossy)
    with pytest.raises(bench.VerificationError):
        acceptance.check_sorted_bound({})
