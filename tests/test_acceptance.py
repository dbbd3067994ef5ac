"""Acceptance gate: runs every binding criterion at its stated tolerance.

The full gate is deliberately heavy (instrumented quadratic baselines and
20-seed sweeps); expect several minutes.  Run with ``pytest -s`` to see
the per-criterion PASS/FAIL lines as they complete.
"""

import re

import pytest

from sortlab import SortStats, acceptance, bench


@pytest.fixture(scope="module")
def results():
    out = {}
    for result in acceptance.run_acceptance():
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
    header, *rows = result.detail.split("\n")
    assert header == "bcis/qs wall-time ratios (machine-dependent, informational):"
    cells = [("uniform", n, 5) for n in (64, 128, 256, 512, 1024, 1400)]
    cells += [("k_distinct(k=50)", n, t) for n, t in ((10**4, 5), (10**5, 5), (10**6, 3))]
    assert len(rows) == len(cells)
    for row, (label, n, trials) in zip(rows, cells):
        pattern = (rf"    {re.escape(label)} +n={n} +bcis/qs time = \d+\.\d{{3}}"
                   rf"  \(medians over {trials} trials, ns: \d+ / \d+\)")
        assert re.fullmatch(pattern, row), row


def test_criterion_12_determinism(results):
    _assert(results, 12)


#: The line of every criterion but the report-only #11, as printed by
#: ``sortlab verify``.  The details carry the gate's counts, so a changed
#: count shows here even when its criterion still passes.
GATE_LINES = {
    1: "PASS   1. correctness: 89573 cases, zero failures",
    2: "PASS   2. all-equal linearity: comps <= 2n (max comps/n=1.000), 1 trip",
    3: "PASS   3. sorted-array bound: n=10000: comps/n=3.991, n=100000: comps/n=3.999 in [2, 6]",
    4: "PASS   4. reverse-sorted bound: n=1000: 0.9981, n=10000: 0.9998 in [0.8, 1.3]",
    5: "PASS   5. small-n worst construction: comps within 10% of n(n-1)/2 (max deviation 2.2%)",
    6: "PASS   6. small-n best construction: comps and assigns <= 3n at n in {10,50,99}",
    7: "PASS   7. average-case scaling: slope=1.488 in [1.35, 1.65]; assigns < comps; 2^13 measured/model=0.606",
    8: "PASS   8. insertion-sort fidelity: n=1000: 1.0085, n=10000: 0.9997 in [0.9, 1.1]",
    9: "PASS   9. bcis/is comparison ratio: n=10^4: 0.0275 in [0.02, 0.10]",
    10: "PASS  10. cost-model units: 31 substitutions exact; k-sweep minimum near sqrt(n)",
    12: "PASS  12. count-mode determinism: identical invocations give byte-identical CSV",
}


def test_gate_lines_are_pinned(results):
    assert {n: r.line() for n, r in results.items() if n != 11} == GATE_LINES


def sorted_but_lossy(seq):
    seq.sort()
    if len(seq) > 1:
        seq[0] = seq[1]  # still sorted, but the smallest item is lost
    return SortStats()


def test_gate_checks_the_multiset(monkeypatch):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", sorted_but_lossy)
    with pytest.raises(bench.VerificationError):
        acceptance.check_sorted_bound({})


def test_correctness_runs_the_verifier(monkeypatch, capsys):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", sorted_but_lossy)
    with pytest.raises(bench.VerificationError, match=r"^bcis on \(0, 1\): "):
        acceptance.check_correctness({})
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.check_correctness])
    (result,) = acceptance.run_acceptance()
    assert not result.passed
    lines = capsys.readouterr().out.splitlines()
    assert lines == [result.line()]
    assert lines[0].startswith("FAIL   1. correctness: verification failure: bcis on (0, 1): ")
