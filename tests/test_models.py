"""Unit tests for the closed-form cost models."""

from fractions import Fraction
from itertools import permutations

import pytest

from sortlab import insertion_sort, models


def test_general_comparisons():
    # k=2 degenerates to n^2/2 - n
    for n in (10, 100, 1000):
        assert models.bcis_general_comparisons(n, 2) == pytest.approx(n * n / 2 - n)


def test_general_comparisons_domain():
    with pytest.raises(ValueError):
        models.bcis_general_comparisons(10, 1)
    with pytest.raises(ValueError):
        models.bcis_general_comparisons(10, 11)


def test_avg_ratio_to_insertion_sort():
    ratio = models.bcis_avg_comparisons(10000) / models.is_avg_comparisons(10000)
    assert ratio == pytest.approx(0.0449, abs=0.0005)


def test_sqrt_load_matches_general_form_at_perfect_squares():
    for root in (2, 3, 5, 10, 31, 100, 1000):
        n = root * root
        assert models.bcis_avg_comparisons(n) == pytest.approx(
            models.bcis_general_comparisons(n, root), rel=1e-12
        )


def test_assignments_below_comparisons_beyond_64():
    n = 64
    while n <= 10**7:
        assert models.bcis_avg_assignments(n) < models.bcis_avg_comparisons(n)
        n = max(n + 1, int(n * 1.37))


def test_models_monotone_in_n():
    funcs = [
        models.is_avg_comparisons,
        models.is_avg_assignments,
        models.bcis_avg_comparisons,
        models.bcis_avg_assignments,
        models.bcis_best_small,
        models.bcis_best_sorted,
        models.bcis_worst_small,
        models.bcis_worst_reverse,
    ]
    ns = [16 + i for i in range(50)] + [10**3, 10**4, 10**5]
    for func in funcs:
        values = [func(n) for n in ns]
        assert all(a < b for a, b in zip(values, values[1:])), func.__name__


def test_is_avg_comparisons_residual_to_exact_mean():
    # Insertion sort over every permutation gives Knuth's exact mean; the
    # paper's formula is high by H_n - 1.
    for n in range(1, 9):
        perms = list(permutations(range(n)))
        mean = Fraction(sum(insertion_sort(list(p)).comparisons for p in perms), len(perms))
        harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
        exact = Fraction(n * (n - 1), 4) + n - harmonic
        assert mean == exact
        assert Fraction(models.is_avg_comparisons(n)) - exact == harmonic - 1


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        models.is_avg_comparisons(-1)
