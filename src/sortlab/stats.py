"""Operation counters threaded through every instrumented sort."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SortStats:
    """Mutable counter record shared by all algorithms in this package.

    comparisons
        Element-vs-element decisions.  A two-sided classification of one
        scanned item against a comparator pair counts as a single
        three-way comparison; every guard evaluated by an insertion loop
        counts one.
    assignments
        Element values written to array slots.  A swap contributes
        exactly 3 (it round-trips through a temporary).  Snapshot reads
        into comparator registers are not counted.
    swaps
        Three-assignment exchanges.
    sort_trips
        Outer-loop iterations of the sweeping algorithms.
    terminated_by_equal
        Set when the all-equal scan found nothing but copies of the
        boundary value and the sort finished early.
    """

    comparisons: int = 0
    assignments: int = 0
    swaps: int = 0
    sort_trips: int = 0
    terminated_by_equal: bool = False
