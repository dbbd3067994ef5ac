"""Closed-form operation-count models for the sorts in this package.

All functions are pure, evaluate in floating point (they are expectations,
not integers) and take the element count ``n``.  The two-run sweep models
additionally take ``k``, the number of elements inserted per sort trip;
its analyzed domain is 2 <= k <= n and requests outside it raise.
"""

from __future__ import annotations

from math import sqrt


def _check_n(n: float) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def is_avg_comparisons(n: float) -> float:
    """Average comparisons of classical insertion sort, as the paper gives it.

    Knuth's exact mean over the permutations of n distinct keys is
    n(n-1)/4 + n - H_n (TAOCP Vol. 3, section 5.2.1); this formula
    exceeds it by H_n - 1, under 9 for n <= 10^4.
    """
    _check_n(n)
    return n * n / 4 + 3 * n / 4 - 1


def is_avg_assignments(n: float) -> float:
    """Average assignments of classical insertion sort."""
    _check_n(n)
    return n * n / 4 + 7 * n / 4 + 3


def bcis_trip_comparisons(k: float) -> float:
    """Average comparisons of one insertion function during one sort trip."""
    _check_n(k)
    return k * k / 16 + 3 * k / 8 - 1


def bcis_trip_assignments(k: float) -> float:
    """Average assignments of one insertion function during one sort trip,
    including the extra write that frees the scratch slot."""
    _check_n(k)
    return k * k / 16 + 7 * k / 8 + 4


def _check_k(n: float, k: float) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside the analyzed domain [2, n={n}]")


def bcis_general_comparisons(n: float, k: float) -> float:
    """Average comparisons of the two-run sweep when each trip inserts k
    elements; degenerates toward n^2 at both ends of the k domain."""
    _check_n(n)
    _check_k(n, k)
    return (n / k) * (k * k / 8 + 3 * k / 4 - 2 + n) - n


def bcis_avg_comparisons(n: float) -> float:
    """Average comparisons at the optimal per-trip load k = sqrt(n)."""
    _check_n(n)
    return 9 / 8 * n**1.5 - n / 4 - 2 * sqrt(n)


def bcis_avg_assignments(n: float) -> float:
    """Average assignments at the optimal per-trip load k = sqrt(n)."""
    _check_n(n)
    return n**1.5 / 8 + 7 * n / 4 + 8 * sqrt(n)


def bcis_best_small(n: float) -> float:
    """Best-case comparisons for ranges below the pre-scan threshold."""
    _check_n(n)
    return float(n)


def bcis_best_sorted(n: float) -> float:
    """Comparisons on an already-sorted array: two per item per halving."""
    _check_n(n)
    return 4.0 * n


def bcis_worst_small(n: float) -> float:
    """Worst-case comparisons for ranges below the pre-scan threshold."""
    _check_n(n)
    return n * (n - 1) / 2


def bcis_worst_reverse(n: float) -> float:
    """Comparisons on a reverse-sorted array."""
    _check_n(n)
    return n * n / 6 + 3 * n / 2
