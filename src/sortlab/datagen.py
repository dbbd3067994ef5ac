"""Deterministic input generators for the benchmark harness.

Every dataset is described declaratively by a :class:`DatasetSpec`,
which checks its invariants when built; the same spec always generates
the same sequence, across runs and platforms.  Only the kinds in
:data:`SAMPLED` draw from the spec's seed; every other kind is one fixed
input per n.  The PRNG is Python's Mersenne Twister (``random.Random``),
which is portable and stable; per-trial seeds are split from a base seed
with BLAKE2b (see :func:`derive_seed`).

``uniform`` and ``k_distinct`` values are exactly those that
``randrange(VALUE_BOUND)`` and ``choice(pool)`` give on the spec's seed, but
drawn in bulk (:func:`_below`).  The equality rests on CPython's
``getrandbits`` word order and ``_randbelow`` rejection rule, which
``tests/test_datagen.py`` pins against the per-item calls.  Integer CSV
fields must be canonical (``str(int(text)) == text``, checked by
``bench.read_csv``), so a row read back names the spec that made its input.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from dataclasses import dataclass
from typing import List, Optional

from .bcis import PRESCAN_SPAN

#: Recognized dataset kinds.
KINDS = (
    "uniform",
    "sorted",
    "reverse",
    "equal",
    "k_distinct",
    "best_small",
    "worst_small",
)

#: The kinds that draw from the spec's seed; the others ignore it.
SAMPLED = ("uniform", "k_distinct")

#: Values drawn by ``uniform`` and ``k_distinct`` lie in ``[0, VALUE_BOUND)``.
VALUE_BOUND = 2**31


class DatasetSpecError(ValueError):
    """Raised when a dataset spec violates its invariants."""


@dataclass(frozen=True)
class DatasetSpec:
    """One named input; building or ``replace``-ing an invalid spec raises
    :class:`DatasetSpecError`, its violations ``"; "``-joined."""

    kind: str
    n: int
    seed: int = 0
    k_param: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DatasetSpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        out: List[str] = []
        if self.n < 0:
            out.append(f"n must be nonnegative, got {self.n}")
        # Random(-s) is seeded exactly as Random(s), so a negative seed
        # would name the same input as its absolute value.
        if self.seed < 0:
            out.append(f"seed must be nonnegative, got {self.seed}")
        if self.kind == "k_distinct":
            if self.k_param is None:
                out.append("k_distinct requires k_param")
            elif not 1 <= self.k_param <= max(self.n, 1):
                out.append(
                    f"k_param must be in [1, n], got k_param={self.k_param} n={self.n}"
                )
        elif self.k_param is not None:
            out.append(f"k_param only applies to k_distinct, got kind={self.kind!r}")
        # From PRESCAN_SPAN up, the pre-scan displaces the constructions'
        # comparators, so they no longer force their best or worst case.
        if self.kind in ("best_small", "worst_small") and self.n >= PRESCAN_SPAN:
            out.append(f"{self.kind} requires n < {PRESCAN_SPAN}, got n={self.n}")
        if out:
            raise DatasetSpecError("; ".join(out))


def derive_seed(base: int, *parts: object) -> int:
    """Split a 64-bit child seed from a base seed and arbitrary labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((base,) + parts).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def generate(spec: DatasetSpec) -> List[int]:
    """Materialize the sequence described by ``spec``."""
    n = spec.n
    if spec.kind == "sorted":
        return list(range(1, n + 1))
    if spec.kind == "reverse":
        return list(range(n, 0, -1))
    if spec.kind == "equal":
        return [1] * n  # sorted's first item
    if spec.kind in ("best_small", "worst_small"):
        return _small_construction(n, ascending=spec.kind == "best_small")
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        return _below(rng, VALUE_BOUND, n)
    # k_distinct
    pool = rng.sample(range(VALUE_BOUND), spec.k_param)
    return list(map(pool.__getitem__, _below(rng, spec.k_param, n)))


def _below(rng: random.Random, bound: int, count: int) -> List[int]:
    """The values of ``count`` calls of ``rng._randbelow(bound)``, for
    ``0 < bound < 2**32``, drawn in bulk.

    ``_randbelow`` takes the top ``k = bound.bit_length()`` bits of a 32-bit
    word and redraws while they are ``>= bound``; they are below ``bound``
    exactly when the word is below ``bound << (32 - k)``.
    ``getrandbits(32 * m)`` holds its m words in draw order from the low
    bits up.  Each round asks for every word still missing, and only for
    those, so ``rng`` ends where ``count`` calls would leave it.
    """
    shift = 32 - bound.bit_length()
    keep = (bound << shift).__gt__
    out: List[int] = []
    while len(out) < count:
        m = count - len(out)
        words = array("I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        kept = filter(keep, words)
        # VALUE_BOUND's draws take whole words: no shift to apply.
        out += map(shift.__rrshift__, kept) if shift else kept
    return out


def _small_construction(n: int, ascending: bool) -> List[int]:
    """Layouts that make every sweep insertion go left at extreme cost.

    Position n carries the maximum, position 1 the second maximum, and the
    remaining values sit in between, ascending (one cheap shift per
    insertion) or descending (a full shift cascade per insertion).  The
    sorter swaps the window middle to the right boundary before reading
    its comparators, so the layout is pre-inverted against that move:
    positions mid and n are exchanged here and the first trip restores
    them.
    """
    values = list(range(1, n + 1))
    if n < 2:
        return values
    middle = values[: n - 2] if ascending else values[: n - 2][::-1]
    arr = [values[n - 2]] + middle + [values[n - 1]]
    mid = (n - 1) // 2  # the sorter's middle of the full window
    arr[mid], arr[n - 1] = arr[n - 1], arr[mid]
    return arr


def sweep_sizes(text: str) -> List[int]:
    """Parse a size list: either comma-separated or ``start:stop:factor``
    (geometric, inclusive of stop when hit exactly)."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"expected start:stop:factor, got {text!r}")
        start, stop, factor = (int(f) for f in fields)
        if start <= 0 or stop < start or factor < 2:
            raise ValueError(f"bad geometric sweep {text!r}")
        out = []
        n = start
        while n <= stop:
            out.append(n)
            n *= factor
        return out
    sizes = [int(f) for f in text.split(",") if f.strip()]
    if not sizes or any(n < 0 for n in sizes):
        raise ValueError(f"bad size list {text!r}")
    return sizes
