"""Unit tests for the dataset generators."""

import random
import re
from dataclasses import replace

import pytest

import datagen_reference
from sortlab import DatasetSpec, DatasetSpecError, SortStats, bcis_sort, generate
from sortlab.datagen import KINDS, SAMPLED, VALUE_BOUND, _below, derive_seed, sweep_sizes
from test_properties import CLOSED_FORMS


def _raises(message):
    """Expect a DatasetSpecError whose message is exactly ``message``."""
    return pytest.raises(DatasetSpecError, match=f"^{re.escape(message)}$")


class TestValidate:
    def test_ok(self):
        spec = DatasetSpec("uniform", 10, seed=1)
        assert (spec.kind, spec.n, spec.seed, spec.k_param) == ("uniform", 10, 1, None)
        assert DatasetSpec("k_distinct", 0, k_param=1).n == 0
        assert replace(spec, n=0).n == 0

    def test_small_construction_size_limit(self):
        with _raises("best_small requires n < 100, got n=200"):
            DatasetSpec("best_small", 200)
        with _raises("worst_small requires n < 100, got n=100"):
            DatasetSpec("worst_small", 100)
        assert DatasetSpec("worst_small", 99).n == 99

    def test_k_param_bounds(self):
        with _raises("k_param must be in [1, n], got k_param=0 n=10"):
            DatasetSpec("k_distinct", 10, k_param=0)
        with _raises("k_param must be in [1, n], got k_param=11 n=10"):
            DatasetSpec("k_distinct", 10, k_param=11)
        with _raises("k_distinct requires k_param"):
            DatasetSpec("k_distinct", 10)
        assert DatasetSpec("k_distinct", 10, k_param=10).k_param == 10

    def test_unknown_kind(self):
        with _raises(f"kind must be one of {KINDS}, got 'normal'"):
            DatasetSpec("normal", -10, k_param=5)  # the kind alone is reported

    def test_negative_n(self):
        with _raises("n must be nonnegative, got -1"):
            DatasetSpec("uniform", -1)

    def test_negative_seed(self):
        with _raises("seed must be nonnegative, got -7"):
            DatasetSpec("uniform", 12, seed=-7)

    def test_k_param_rejected_elsewhere(self):
        with _raises("k_param only applies to k_distinct, got kind='uniform'"):
            DatasetSpec("uniform", 10, k_param=5)

    def test_violations_are_joined(self):
        with _raises(
            "n must be nonnegative, got -1; "
            "k_param only applies to k_distinct, got kind='worst_small'"
        ):
            DatasetSpec("worst_small", -1, k_param=3)

    def test_replace_checks_too(self):
        spec = DatasetSpec("k_distinct", 50, seed=3, k_param=50)
        with _raises("k_param must be in [1, n], got k_param=50 n=10"):
            replace(spec, n=10)


class TestGenerate:
    def test_sorted(self):
        assert generate(DatasetSpec("sorted", 5)) == [1, 2, 3, 4, 5]

    def test_reverse(self):
        assert generate(DatasetSpec("reverse", 5)) == [5, 4, 3, 2, 1]

    def test_equal(self):
        assert generate(DatasetSpec("equal", 4)) == [1, 1, 1, 1]

    def test_empty(self):
        for kind in ("uniform", "sorted", "reverse", "equal"):
            assert generate(DatasetSpec(kind, 0)) == []

    def test_determinism(self):
        spec = DatasetSpec("uniform", 1000, seed=42)
        assert generate(spec) == generate(spec)
        other = DatasetSpec("uniform", 1000, seed=43)
        assert generate(spec) != generate(other)

    def test_uniform_range(self):
        data = generate(DatasetSpec("uniform", 500, seed=3))
        assert all(0 <= v < VALUE_BOUND for v in data)

    def test_k_distinct_counts(self):
        data = generate(DatasetSpec("k_distinct", 10**4, seed=8, k_param=50))
        assert len(set(data)) == 50
        tiny = generate(DatasetSpec("k_distinct", 3, seed=8, k_param=3))
        assert len(set(tiny)) <= 3


def test_generates_n_items():
    for kind in KINDS:
        sizes = range(100) if kind in ("best_small", "worst_small") else range(121)
        for n in sizes:
            k_params = {1, max(n, 1)} if kind == "k_distinct" else {None}
            for k_param in k_params:
                spec = DatasetSpec(kind, n, seed=n, k_param=k_param)
                assert len(generate(spec)) == spec.n, spec


@pytest.mark.parametrize(
    "bound", [1, 2, 3, 5, 50, 64, 255, 256, 257, 1000, 1001, 2**20 + 1, 2**31 - 1, 2**31]
)
def test_bulk_draws_equal_randrange(bound):
    # _below relies on CPython's getrandbits word order and _randbelow
    # rejection rule; this pins both on each Python version.
    for seed in range(50):
        for count in (*range(21), 1000):  # most take more than one round
            rng, ref = random.Random(seed), random.Random(seed)
            assert _below(rng, bound, count) == [ref.randrange(bound) for _ in range(count)]
            assert rng.getstate() == ref.getstate(), (seed, count)


def test_generate_equals_per_item_draws():
    for n in [*range(121), 10**5]:
        specs = [DatasetSpec("uniform", n, seed=n)] + [
            DatasetSpec("k_distinct", n, seed=n, k_param=k)
            for k in {1, 2, 50, 64, max(n, 1)}
            if k <= max(n, 1)
        ]
        for spec in specs:
            assert generate(spec) == datagen_reference.generate(spec), spec


@pytest.mark.parametrize("kind", KINDS)
def test_only_sampled_kinds_read_the_seed(kind):
    for n in (2, 10, 99):
        k_param = 2 if kind == "k_distinct" else None
        a, b = (generate(DatasetSpec(kind, n, seed=s, k_param=k_param)) for s in (0, 2**63))
        assert (a == b) == (kind not in SAMPLED), n


class TestSmallConstructions:
    # The per-n cases of the closed forms that
    # test_binary_insertion::test_matches_linear_reference_on_constructions
    # asserts at every n = 2...99.
    @pytest.mark.parametrize("n", [2, 3, 6, 10, 50, 99])
    @pytest.mark.parametrize("kind", ["best_small", "worst_small"])
    def test_distinct_values_and_sortable(self, kind, n):
        work = generate(DatasetSpec(kind, n))
        bcis_sort(work)
        assert work == list(range(1, n + 1))

    @pytest.mark.parametrize("n", range(2, 100))
    def test_best_insertions_are_cheap(self, n):
        stats = bcis_sort(generate(DatasetSpec("best_small", n)))
        assert stats == SortStats(*CLOSED_FORMS["best_small"](n))

    @pytest.mark.parametrize("n", [10, 50, 99])
    def test_worst_costs_quadratic(self, n):
        stats = bcis_sort(generate(DatasetSpec("worst_small", n)))
        assert stats == SortStats(*CLOSED_FORMS["worst_small"](n))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(1, "bcis", "uniform", 100, 0)
        assert a == derive_seed(1, "bcis", "uniform", 100, 0)
        assert a != derive_seed(1, "bcis", "uniform", 100, 1)
        assert a != derive_seed(2, "bcis", "uniform", 100, 0)


class TestSweepSizes:
    def test_comma_list(self):
        assert sweep_sizes("10,20,30") == [10, 20, 30]

    def test_geometric(self):
        assert sweep_sizes("100:1000:2") == [100, 200, 400, 800]
        assert sweep_sizes("100:800:2") == [100, 200, 400, 800]

    def test_bad_inputs(self):
        for text in ("", "1:2", "0:10:2", "10:5:2", "10:100:1", "a,b"):
            with pytest.raises(ValueError):
                sweep_sizes(text)
