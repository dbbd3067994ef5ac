"""The acceptance gate's fast criteria at full size, and fast checks of how
the gate runs its criteria; the slow criteria are in ``test_acceptance.py``."""

import pytest

from sortlab import SortStats, acceptance, bench
from sortlab.cli import EXIT_VERIFICATION, main

#: The criteria that finish in seconds (perfbench's ``gate-subset``) run
#: here, in the fast suite; the slow ones run in ``test_acceptance.py``.
FAST = (2, 3, 4, 5, 6, 10, 12)
SLOW = (1, 7, 8, 9, 11)

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


def each_criterion(numbers):
    """Parametrize a test over the criteria ``numbers``, one ``criterion-NN`` case each."""
    return pytest.mark.parametrize(
        "check",
        [check for check in acceptance.CRITERIA if check.number in numbers],
        ids=lambda check: f"criterion-{check.number:02d}",
    )


def test_each_criterion_runs_in_exactly_one_file():
    assert sorted(FAST + SLOW) == sorted(check.number for check in acceptance.CRITERIA)


@each_criterion(FAST)
def test_criterion(check):
    assert check({}).line() == GATE_LINES[check.number]


def test_criteria_8_and_9_share_the_insertion_sort_means(monkeypatch):
    sizes = []
    sort = bench.ALGORITHMS["is"]

    def counting(seq):
        sizes.append(len(seq))
        return sort(seq)

    monkeypatch.setattr(acceptance, "AVG_TRIALS", 2)
    monkeypatch.setitem(bench.ALGORITHMS, "is", counting)
    cache = {}
    assert acceptance.check_is_fidelity(cache).passed
    assert sizes == [10**3, 10**3, 10**4, 10**4]
    acceptance.check_count_ratio(cache)
    assert len(sizes) == 4


def loses_an_item_above(size):
    def sort(seq):
        seq.sort()
        if len(seq) > size:
            seq[0] = seq[1]  # still sorted, but the smallest item is lost
        return SortStats()

    return sort


def test_correctness_runs_the_verifier(monkeypatch, capsys):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", loses_an_item_above(1))
    with pytest.raises(bench.VerificationError, match=r"^bcis on \(0, 1\): "):
        acceptance.check_correctness({})
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.check_correctness])
    (result,) = acceptance.run_acceptance()
    assert not result.passed
    lines = capsys.readouterr().out.splitlines()
    assert lines == [result.line()]
    assert lines[0].startswith("FAIL   1. correctness: verification failure: bcis on (0, 1): ")


def test_correctness_names_a_random_input(monkeypatch):
    monkeypatch.setattr(acceptance, "ALGORITHMS", {"bcis": loses_an_item_above(10)})
    with pytest.raises(bench.VerificationError, match=r"^bcis on random n=\d+: "):
        acceptance.check_correctness({})


def sorts_at_7n_comparisons(seq):
    seq.sort()
    return SortStats(comparisons=7 * len(seq))


def test_failing_bounds_list_every_size(monkeypatch):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", sorts_at_7n_comparisons)
    result = acceptance.check_sorted_bound({})
    assert not result.passed
    assert result.detail == "n=10000: comps/n=7.000, n=100000: comps/n=7.000 outside [2, 6]"
    result = acceptance.check_reverse_bound({})
    assert not result.passed
    assert result.detail.startswith("n=1000: ") and ", n=10000: " in result.detail
    assert result.detail.endswith(" outside [0.8, 1.3]")


def sorts_without_counting(seq):
    seq.sort()
    return SortStats()


def test_a_criterion_that_raises_fails_and_the_gate_goes_on(monkeypatch, capsys):
    # #9 divides by #8's insertion-sort mean, which this sort leaves at 0.
    monkeypatch.setitem(bench.ALGORITHMS, "is", sorts_without_counting)
    monkeypatch.setattr(acceptance, "AVG_TRIALS", 2)
    monkeypatch.setattr(
        acceptance, "CRITERIA", [acceptance.check_is_fidelity, acceptance.check_count_ratio]
    )
    assert main(["verify"]) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == (
        "FAIL   8. insertion-sort fidelity: n=1000: 0.0000, n=10000: 0.0000 outside [0.9, 1.1]"
    )
    assert lines[1].startswith("FAIL   9. bcis/is comparison ratio: ZeroDivisionError: ")
    assert len(lines) == 2 and "Traceback" not in captured.err
