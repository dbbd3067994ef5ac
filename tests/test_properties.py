"""Property-based checks shared by all three sorts."""

from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortlab import ALGORITHMS, DatasetSpec, bcis_sort, generate, insertion_sort

element_lists = st.lists(st.integers(-1000, 1000), max_size=300)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@given(data=element_lists)
@settings(max_examples=150, deadline=None)
def test_sorts_and_preserves_multiset(algo, data):
    work = list(data)
    stats = ALGORITHMS[algo](work)
    assert work == sorted(data)
    assert Counter(work) == Counter(data)
    assert stats.assignments >= 3 * stats.swaps
    if len(data) >= 2:
        assert stats.sort_trips >= 1


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_exhaustive_small_alphabet(algo):
    sort = ALGORITHMS[algo]
    for length in range(7):
        for tup in product((0, 1, 2), repeat=length):
            work = list(tup)
            sort(work)
            assert work == sorted(tup)


@given(data=element_lists)
@settings(max_examples=100, deadline=None)
def test_trip_count_bound(data):
    stats = bcis_sort(list(data))
    n = len(data)
    assert stats.sort_trips <= -(-n // 2) + 1


def _runs_per_trip(data):
    """(left run, right run) at the top of each bcis_sort trip."""
    runs = []
    bcis_sort(
        list(data),
        trip_hook=lambda seq, sl, sr: runs.append((seq[:sl], seq[sr + 1 :])),
    )
    return runs


@given(data=element_lists)
@settings(max_examples=200, deadline=None)
def test_insert_right_postcondition(data):
    # Right insertions stay below the retired run: each trip's right run is
    # sorted and ends with the run the trip before it started with.
    runs = _runs_per_trip(data)
    for (_, before), (_, after) in zip(runs, runs[1:]):
        assert after == sorted(after)
        assert len(after) > len(before) and after[len(after) - len(before) :] == before


@given(data=element_lists)
@settings(max_examples=200, deadline=None)
def test_insert_left_postcondition(data):
    runs = _runs_per_trip(data)
    for (before, _), (after, _) in zip(runs, runs[1:]):
        assert after == sorted(after)
        assert len(after) > len(before) and after[: len(before)] == before


@given(data=element_lists)
@settings(max_examples=150, deadline=None)
def test_insertion_sort_exact_oracle(data):
    n = len(data)
    inversions = sum(
        data[i] > data[j] for i in range(n) for j in range(i + 1, n)
    )
    # Keys after the first that are strictly below everything before them
    # shift past the whole run, so no guard stops their loop.
    prefix_minima = sum(data[i] < min(data[:i]) for i in range(1, n))
    stats = insertion_sort(list(data))
    steps = max(n - 1, 0)
    assert stats.comparisons == inversions + steps - prefix_minima
    assert stats.assignments == inversions + steps
    assert _fenwick_inversions(data) == inversions


def _fenwick_inversions(data):
    """Pairs i < j with data[i] > data[j], in O(n log n): a Fenwick tree
    over value ranks counts the items seen so far at or below each rank."""
    ranks = {v: r for r, v in enumerate(sorted(set(data)), 1)}
    tree = [0] * (len(ranks) + 1)
    inversions = 0
    for seen, v in enumerate(data):
        r = ranks[v]
        while r:
            inversions -= tree[r]
            r -= r & -r
        inversions += seen
        r = ranks[v]
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return inversions


@pytest.mark.parametrize(
    "spec",
    [
        DatasetSpec("uniform", 10**3, seed=1),
        DatasetSpec("uniform", 10**4, seed=2),
        DatasetSpec("k_distinct", 10**3, seed=3, k_param=50),
        DatasetSpec("uniform", 10**4),
        DatasetSpec("reverse", 10**4),
        DatasetSpec("k_distinct", 10**4, k_param=50),
    ],
    ids=["uniform-1e3", "uniform-1e4", "k_distinct-1e3", "uniform-1e4-seed0",
         "reverse-1e4", "k_distinct-1e4"],
)
def test_insertion_sort_exact_oracle_at_gate_sizes(spec):
    # The oracle above, at the sizes of the gate's insertion-sort fidelity
    # band, with the inversions counted in O(n log n).
    data = generate(spec)
    inversions = _fenwick_inversions(data)
    prefix_minima = sum(v < low for v, low in zip(data[1:], accumulate(data, min)))
    work = list(data)
    stats = insertion_sort(work)
    assert work == sorted(data)
    assert stats.comparisons == inversions + spec.n - 1 - prefix_minima
    assert stats.assignments == inversions + spec.n - 1
    assert (stats.swaps, stats.sort_trips, stats.terminated_by_equal) == (0, spec.n - 1, False)


@given(data=st.lists(st.integers(0, 3), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_equal_flag_only_on_equal_windows(data):
    # The flag is set exactly when the last trip's window holds one value.
    windows = []
    stats = bcis_sort(list(data), trip_hook=lambda seq, sl, sr: windows.append(seq[sl : sr + 1]))
    assert stats.terminated_by_equal == (bool(windows) and len(set(windows[-1])) == 1)
    if len(set(data)) == 1 and len(data) >= 2:
        assert stats.sort_trips == 1
        assert stats.comparisons <= 2 * len(data)


@given(value=st.integers(), n=st.integers(2, 5000))
@settings(max_examples=50, deadline=None)
def test_all_equal_linear(value, n):
    stats = bcis_sort([value] * n)
    assert stats.terminated_by_equal
    assert stats.sort_trips == 1
    assert stats.comparisons <= 2 * n
