"""The check shared by every kernel test, and the inputs it runs on.

``_check`` sorts a copy of an input with one of the three sorts and
asserts what holds on every input, including equality with the kernels
of ``linear_reference``, which perform every operation they count.  It
runs here on random lists, on every tuple over {0, 1, 2} up to length 8,
on runs of one value at the ends of the equal scan's slices, on ascending
tails and stretches that BCIS merges into its right run, on falling
sequences that its left insertions splice in one step, on the pinned
inputs of ``test_core_sort`` and on the fixed inputs and gate inputs of
``test_binary_insertion``.  BCIS's rank-indexed sweep is checked where
its trigger fires, and on the small corpora with the trigger forced.
Quicksort is checked on ranges of one value on both sides of the size
from which it counts them without partitioning, on ranges whose three
samples are equal but which hold one other value, and on inputs of a few
distinct values.  Insertion sort's counters are also checked against an
exact inversion-count oracle.
"""

import random
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linear_reference
from sortlab import ALGORITHMS, DatasetSpec, SortStats, generate, insertion_sort
from sortlab import bcis
from sortlab.bcis import SLICE_CAP

#: The reference kernel each sort must match.
REFERENCES = {
    "bcis": linear_reference.bcis_sort,
    "is": linear_reference.insertion_sort,
    "qs": linear_reference.quicksort_mo3,
}

# Two or three values put ties at nearly every stop index; 10**9 values
# almost none.  Lists up to 300 cross PRESCAN_SPAN (100).
lists = st.sampled_from([2, 3, 10, 10**9]).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=300)
)

#: BCIS's counters (comparisons, assignments, swaps, sort_trips,
#: terminated_by_equal) on each fixed input of n >= 2 items.  Each sorts
#: in one trip whose one swap is the middle exchange.
CLOSED_FORMS = {
    # The boundary test, then one equal-scan step per interior item.
    "equal": lambda n: (n - 1, 3, 1, 1, True),
    # The boundaries' two tests; each interior item is classified, shifts
    # the left run's top and stops at the item before, except the first,
    # which passes the whole run.  Assignments: refill, shift, placement.
    # At n = 2 the middle exchange alone sorts the pair.
    "best_small": lambda n: (3 * n - 5, 3 * n - 3, 1, 1, False) if n > 2 else (2, 3, 1, 1, False),
    # The k-th interior item (k = 0, 1, ...) is classified and shifts
    # past the whole left run of k + 1 items, with no guard to stop it:
    # k + 2 comparisons, and k + 3 assignments with refill and placement.
    "worst_small": lambda n: (n * (n - 1) // 2 + 1, n * (n + 1) // 2, 1, 1, False),
}


def record(sort, data, state=tuple):
    """Sort a copy of data: the output, the counters and, unless state is
    None, ``(sl, sr, state(seq))`` at the top of every trip."""
    work = list(data)
    trips = []
    if state is None:
        stats = sort(work)
    else:
        stats = sort(work, trip_hook=lambda seq, sl, sr: trips.append((sl, sr, state(seq))))
    return work, stats, trips


def _check(algo, data, state=tuple):
    """Sort a copy of data with ``ALGORITHMS[algo]``, assert what holds on
    every input, and return the ``record`` of the run.

    ``state`` is what BCIS records of the array at each trip (no trips
    are recorded for the other sorts); the trip-level checks below need
    the whole array, ``tuple``.
    """
    if algo != "bcis":
        state = None
    run = record(ALGORITHMS[algo], data, state)
    out, stats, trips = run
    n = len(data)
    assert out == sorted(data)
    assert stats.assignments >= 3 * stats.swaps
    if algo == "qs":
        assert stats.assignments == 3 * stats.swaps
    if n >= 2:
        assert stats.sort_trips >= 1
    if algo == "bcis" and n >= 2 and len(set(data)) == 1:
        assert stats == SortStats(*CLOSED_FORMS["equal"](n))
    if algo in REFERENCES:
        assert record(REFERENCES[algo], data, state) == run
    if state is tuple:
        assert stats.sort_trips == len(trips) <= -(-n // 2) + 1
        runs = [(seq[:sl], seq[sr + 1 :]) for sl, sr, seq in trips]
        window = ()
        for (left, right), (sl, sr, seq) in zip(runs, trips):
            assert 0 <= sl < sr < n
            window = seq[sl : sr + 1]
            assert list(left) == sorted(left) and list(right) == sorted(right)
            # Retired items bound the window.
            assert not left or left[-1] <= min(window)
            assert not right or right[0] >= max(window)
        # Insertions stay inside the runs: each trip's runs are longer than
        # the trip before's and keep them on their outer ends.
        for (left0, right0), (left, right) in zip(runs, runs[1:]):
            assert len(left) > len(left0) and left[: len(left0)] == left0
            assert len(right) > len(right0) and right[len(right) - len(right0) :] == right0
        # The flag is set exactly when the last window holds one value.
        assert stats.terminated_by_equal == (len(set(window)) == 1)
    return run


def digest(seq):
    """The array state ``_check`` records per trip of inputs too large to
    copy at every trip."""
    return hash(tuple(seq))


@contextmanager
def rank_index(forced=False):
    """Spy on BCIS's rank index: yield a Counter of its ``builds`` and of
    the pre-scanned prefix items that tie with LC or RC when a trip opens
    (``ties``); the Counter's ``index`` attribute holds the index built
    last.  With forced, the trigger's constants are zero, so the index
    builds on the first trip whose pre-scan sample is distinct (empty
    below PRESCAN_SPAN)."""
    seen = Counter()
    seen.index = None

    class Spy(bcis._RankIndex):
        def __init__(self, seq, sl, sr):
            seen["builds"] += 1
            seen.index = self
            super().__init__(seq, sl, sr)

        def open(self, seq, sl, sr, i, k):
            prefix = seq[sl + 1:i]
            seen["ties"] += prefix.count(seq[sl]) + prefix.count(seq[sr])
            return super().open(seq, sl, sr, i, k)

    constants = {"INDEX_SPAN": 0, "INDEX_RATE": 0} if forced else {}
    with mock.patch.multiple(bcis, _RankIndex=Spy, **constants):
        yield seen


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@given(data=lists)
@settings(max_examples=300, deadline=None)
def test_sorts_and_preserves_multiset(algo, data):
    _check(algo, data)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_exhaustive_small_alphabet(algo):
    # 9,841 inputs; they reach the all-equal scan and the equal-boundary swap.
    for length in range(9):
        for tup in product((0, 1, 2), repeat=length):
            _check(algo, tup)


@given(data=lists)
@settings(max_examples=300, deadline=None)
def test_forced_rank_index_sorts_and_preserves_multiset(data):
    with rank_index(forced=True):
        _check("bcis", data)


def test_forced_rank_index_on_small_alphabet():
    # 9,816 of the 9,841 tuples build the index on their first trip.
    with rank_index(forced=True) as seen:
        for length in range(9):
            for tup in product((0, 1, 2), repeat=length):
                _check("bcis", tup)
    assert seen["builds"] > 5000


def test_forced_rank_index_on_equal_scans_and_tails():
    # Lists of a few values meet the equal scan on later trips, whose swap
    # the index must follow; ascending tails are merged into the right
    # run, refilling slot i from below the stretch.
    rng = random.Random(0)
    with rank_index(forced=True):
        for _ in range(3000):
            k = rng.choice([4, 6, 10])
            _check("bcis", [rng.randrange(k) for _ in range(rng.randrange(2, 100))])
        for n in range(17, 301):
            for keys in (None, n // 4):
                _check("bcis", _head_and_tail(n, keys))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2**12, 2**13, 2**14])
def test_rank_index_matches_linear_reference(n, seed):
    # Each of these inputs builds the index once, on its second trip or
    # soon after, and sorts the rest of the way with it.
    with rank_index() as seen:
        _check("bcis", generate(DatasetSpec("uniform", n, seed=seed)), state=digest)
    assert seen["builds"] == 1


@pytest.mark.parametrize(
    "spec",
    [
        DatasetSpec("sorted", 10**4),
        DatasetSpec("reverse", 10**4),
        DatasetSpec("k_distinct", 10**4, seed=1, k_param=50),
        *[DatasetSpec("uniform", n, seed=seed) for n in (2**10, 2**11) for seed in range(3)],
    ],
    ids=lambda spec: f"{spec.kind}-{spec.n}-seed{spec.seed}",
)
def test_rank_index_trigger_refuses(spec):
    # The index would not repay its build on any of these: `sorted` and
    # `reverse` retire too much of each window (INDEX_RATE), 50-distinct
    # repeats its pre-scan sample, and `uniform` 2**10 and 2**11 and
    # `reverse` after its first trip have windows narrower than INDEX_SPAN
    # (`uniform` 2**11's first trip is refused by the rate test).  A
    # trigger without one of its three tests builds the index on at least
    # one of them.
    with rank_index() as seen:
        bcis.bcis_sort(generate(spec))
    assert seen["builds"] == 0


def _folded(seed):
    """uniform 2**13 folded onto 2,048 values."""
    return [v % 2048 for v in generate(DatasetSpec("uniform", 2**13, seed=seed))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_index_settles_prefix_ties(seed):
    # Folded onto 2,048 values, uniform 2**13 keeps a distinct pre-scan
    # sample often enough to build the index, and later pre-scanned
    # prefixes hold items equal to LC or RC, which stay in the window and
    # must take the inner ranks of their value (6 to 13 per input).
    with rank_index() as seen:
        _check("bcis", _folded(seed), state=digest)
    assert seen["builds"] == 1 and seen["ties"] > 0


def _sort_checking_index(data, seen):
    """Sort a copy of data with BCIS under a ``rank_index`` spy, asserting
    at the top of every trip after the index's build that its ranks
    lo..hi name exactly the window's slots, and each slot its own value."""
    seen.index = None

    def whole(seq, sl, sr):
        index = seen.index
        if index is None:
            return
        lo, hi = index.lo, index.hi
        slots = index.order[lo:hi + 1]
        assert hi - lo == sr - sl
        assert sl <= min(slots) and max(slots) <= sr
        assert list(map(index.rank.__getitem__, slots)) == list(range(lo, hi + 1))
        assert list(map(seq.__getitem__, slots)) == index.vals[lo:hi + 1]

    work = list(data)
    bcis.bcis_sort(work, trip_hook=whole)
    assert work == sorted(data)


def test_rank_index_is_whole_between_trips():
    # The maps are read only through the sweep's moves, so a stale entry
    # inside the window could hide until a later trip; check every one.
    with rank_index() as seen:
        for seed in range(3):
            _sort_checking_index(_folded(seed), seen)
    assert seen["builds"] == 3
    with rank_index(forced=True) as seen:
        for length in range(9):
            for tup in product((0, 1, 2), repeat=length):
                _sort_checking_index(tup, seen)
    assert seen["builds"] > 5000


def _scan_meets(n, k, v):
    """``[1] * n`` with v where the first trip's equal scan meets it, at
    index k: the kernel's middle exchange is undone in advance."""
    data = [1] * n
    data[k] = v
    mid = (n - 1) // 2
    data[mid], data[n - 1] = data[n - 1], data[mid]
    return data


#: Where the equal scan's slices end on a window from sl = 0.  They hold
#: 16, 32, ..., 4096 items from index 1, so the j-th ends at index
#: 16 * (2**j - 1): 16, 48, 112, ..., 4080, and the first 4,096-item slice
#: at 8176; past it, at n = 10**4, the scan goes item by item.
SLICE_ENDS = [16 * (2**j - 1) for j in range(1, 10)]

#: 16 * 2**j items past index 1: where a slice of the length of the one
#: before, or of its doubled pattern, would end.
PATTERN_ENDS = [1 + 16 * 2**j for j in range(10)]


@pytest.mark.parametrize("v", [0, 2])
def test_equal_scan_meets_one_differing_item(v):
    for k in range(1, 299):
        _check("bcis", _scan_meets(300, k, v))
    for k in sorted({end + d for end in SLICE_ENDS + PATTERN_ENDS for d in (-1, 0, 1)}):
        _check("bcis", _scan_meets(10**4, k, v))


@pytest.mark.parametrize("interior", [m + d for m in SLICE_ENDS[:3] for d in (-1, 0, 1)])
def test_equal_scan_on_one_value(interior):
    # _check pins the closed form of input of one value.
    _check("bcis", [1] * (interior + 2))


def _head_and_tail(n, keys):
    """n items ascending, drawn from ``keys`` values (all distinct when
    keys is None), with a shuffled head before a tail of at least 16, then
    one transposition anywhere; seeded by n."""
    rng = random.Random(n)
    data = list(range(n)) if keys is None else sorted(rng.randrange(keys) for _ in range(n))
    h = rng.randrange(n - 16)
    head = data[:h]
    rng.shuffle(head)
    data[:h] = head
    a, b = rng.randrange(n), rng.randrange(n)
    data[a], data[b] = data[b], data[a]
    return data


@pytest.mark.parametrize("keys", ["sorted", "curr_fits", "distinct", "ties"])
def test_ascending_tail_merges_into_the_right_run(keys):
    # An ascending stretch of 16 or more items >= RC below the right run
    # is merged into it with curr in one step.  On sorted input the first
    # trip's stretch reaches slot i + 1, where curr, the maximum, was;
    # with "curr_fits", curr, the odd last item, would fit below that
    # stretch.  The transposition splits stretches and sends some curr
    # below the stretch's top; n // 4 values put ties inside the stretch,
    # with curr and with RC.
    for n in range(17, 301):
        if keys == "sorted":
            data = list(range(n))
        elif keys == "curr_fits":
            data = [2 * k for k in range(n - 1)] + [(n - 1) // 2 * 2 + 1]
        else:
            data = _head_and_tail(n, None if keys == "distinct" else n // 4)
        _check("bcis", data)


def _stretch_above_rc(s):
    """A sorted head, a peak, then s + 1 ascending items above the head.
    The middle exchange takes the last of them into the head, so the first
    trip's first merge meets the other s as an ascending stretch >= RC,
    bounded below by the peak."""
    h = s + 20
    return [*range(h), h + s + 1, *range(h, h + s + 1)]


#: Stretch lengths around powers of two, around the ends of the merge's
#: gallop blocks, 1 + 16 + 32 + ... items from the top, and around the
#: first trip's cap of one merge, SLICE_CAP - 2 items.
STRETCHES = sorted({e + d for e in [*(2**j for j in range(4, 13)),
                                    *(16 * (2**j - 1) + 1 for j in range(1, 9)),
                                    SLICE_CAP - 2]
                    for d in (-1, 0, 1)})


def test_stretch_lengths_at_gallop_block_ends():
    for s in STRETCHES:
        _check("bcis", _stretch_above_rc(s))


def _falling(n, seed):
    """2n, 2n - 2, ..., 2 with a tenth of its items replaced, seeded: by
    the item before (a tie with the left insertions' falling run), by a
    rise of up to 60, or by the first trip's LC, the middle item."""
    rng = random.Random(seed)
    data = list(range(2 * n, 0, -2))
    lc = data[(n - 1) // 2]
    for j in rng.sample(range(1, n), n // 10):
        r = rng.random()
        if r < 0.3:
            data[j] = data[j - 1]
        elif r < 0.6:
            data[j] += rng.randrange(1, 60)
        else:
            data[j] = lc
    return data


@pytest.mark.parametrize("n", [100, 178, 316, 562, 1000, 1778, 3000])
def test_falling_runs_broken_by_rises_ties_and_lc(n):
    # Left insertions that each land just below the one before wait in a
    # pending run; a rise, a tie with the run's last item or any other
    # slot splices it in, and items equal to LC are appended meanwhile.
    for seed in range(3):
        _check("bcis", _falling(n, seed))
    # Their ties keep the trigger from firing; forced, the rank index
    # visits the falling runs' slots and moves its map entries per slot.
    with rank_index(forced=True) as seen:
        for seed in range(3):
            _check("bcis", _falling(n, seed))
    assert seen["builds"] > 0


def test_curr_and_stretch_top_both_pass_the_run():
    # In the first trip RC = 11 is the whole right run, and curr = 16
    # meets the stretch 17..32 below it; both 16 and the stretch's top,
    # 32 > 16, pass the whole run, so no guard stops either insertion.
    data = [2, 8, 6, 7, 9, 4, 5, 0, 1, 10, 3, 16, 12, 13, 14, 15, 11, *range(17, 34)]
    assert _check("bcis", data)[1].comparisons == 131


def test_ascending_tail_longer_than_two_merges():
    # The first trip's stretch holds about 10**4 items; each merge sorts at
    # most SLICE_CAP, so it takes three.
    rng = random.Random(0)
    head = list(range(100))
    rng.shuffle(head)
    _check("bcis", head + list(range(100, 5 * SLICE_CAP)))


def test_quicksort_on_one_value():
    # Ranges of more than 17 items are counted, not partitioned.
    for m in range(2, 601):
        _check("qs", [7] * m)


def _one_other(n, k, v):
    """n items of 7 with v at index k."""
    data = [7] * n
    data[k] = v
    return data


@pytest.mark.parametrize("n", [17, 18, 19, 300, 301])
def test_quicksort_one_other_value(n):
    # The first, middle and last items are 7, so the median of three
    # exchanges nothing and its samples are equal, but one item, next to
    # an end or to the middle, is not 7: the range must be partitioned.
    mid = (n - 1) // 2
    for k in (1, n - 2, mid - 1, mid + 1):
        for v in (6, 8):
            _check("qs", _one_other(n, k, v))
    # One other value in many copies, everywhere but the three samples.
    rng = random.Random(n)
    for _ in range(20):
        data = [rng.choice((7, 8)) for _ in range(n)]
        data[0] = data[mid] = data[-1] = 7
        _check("qs", data)


@pytest.mark.parametrize("k", [1, 2, 5, 50])
def test_quicksort_on_few_values(k):
    # Partitions of a few values soon leave ranges of one value, of many
    # sizes.
    for n in (50, 300, 2000, 10**4):
        for seed in range(2):
            _check("qs", generate(DatasetSpec("k_distinct", n, seed=seed, k_param=k)))


@given(data=lists)
@example(data=[2, 1])
@example(data=[1, 2, 3])
@example(data=[3, 2, 1])
@example(data=list(range(500)))
@settings(max_examples=150, deadline=None)
def test_insertion_sort_exact_oracle(data):
    n = len(data)
    inversions = sum(
        data[i] > data[j] for i in range(n) for j in range(i + 1, n)
    )
    # Keys after the first that are strictly below everything before them
    # shift past the whole run, so no guard stops their loop.
    prefix_minima = sum(data[i] < min(data[:i]) for i in range(1, n))
    _, stats, _ = _check("is", data)
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
        DatasetSpec("sorted", 10**4),
        DatasetSpec("equal", 10**4),
        DatasetSpec("reverse", 10**3),
    ],
    ids=["uniform-1e3", "uniform-1e4", "k_distinct-1e3", "uniform-1e4-seed0",
         "reverse-1e4", "k_distinct-1e4", "sorted-1e4", "equal-1e4", "reverse-1e3"],
)
def test_insertion_sort_exact_oracle_at_gate_sizes(spec):
    # The oracle above, at the sizes of the gate's insertion-sort fidelity
    # band, with the inversions counted in O(n log n); on `sorted` and
    # `equal` every key stays on top of the run, and `reverse` 10**3 is the
    # count CI's console step also pins (499,500 comparisons).
    data = generate(spec)
    inversions = _fenwick_inversions(data)
    prefix_minima = sum(v < low for v, low in zip(data[1:], accumulate(data, min)))
    work = list(data)
    stats = insertion_sort(work)
    assert work == sorted(data)
    assert stats.comparisons == inversions + spec.n - 1 - prefix_minima
    assert stats.assignments == inversions + spec.n - 1
    assert (stats.swaps, stats.sort_trips, stats.terminated_by_equal) == (0, spec.n - 1, False)
