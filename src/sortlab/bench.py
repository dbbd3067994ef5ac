"""Benchmark harness: trial runner, ratio tables, scaling fits, CSV I/O.

Count-mode results are bit-reproducible for a given grid and base seed;
wall-clock timing is inherently machine-dependent and treated as
report-only evidence.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, fields, replace
from math import log
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .baselines import insertion_sort, quicksort_mo3
from .bcis import bcis_sort
from .datagen import DatasetSpec, derive_seed, generate
from .stats import SortStats

ALGORITHMS = {
    "bcis": bcis_sort,
    "is": insertion_sort,
    "qs": quicksort_mo3,
}

MODES = ("count", "time", "both")

#: Bit-exact trial CSV header.
CSV_HEADER = (
    "algo,dist,n,k_param,seed,trial,comparisons,assignments,"
    "swaps,sort_trips,terminated_by_equal,elapsed_ns"
)

SUMMARY_HEADER = "n,numerator,denominator,metric,ratio,trials,dispersion"


class VerificationError(RuntimeError):
    """An algorithm produced an unsorted output or lost elements."""


@dataclass(frozen=True)
class TrialRecord:
    algo: str
    dist: str
    n: int
    k_param: Optional[int]
    seed: int
    trial: int
    comparisons: Optional[int]
    assignments: Optional[int]
    swaps: Optional[int]
    sort_trips: Optional[int]
    terminated_by_equal: Optional[bool]
    elapsed_ns: Optional[int]


@dataclass(frozen=True)
class SummaryRow:
    n: int
    numerator: str
    denominator: str
    metric: str
    ratio: float
    trials: int
    dispersion: float


def _verify(original: List, result: Sequence, spec: DatasetSpec, algo: str) -> None:
    """Check that ``result`` equals ``original`` sorted, which for the total
    orders datagen emits means sorted with the multiset kept.  Sorts
    ``original`` in place, so no third n-sized list is held."""
    original.sort()
    if result == original:
        return
    raise VerificationError(
        f"{algo} corrupted its input: spec={spec!r} "
        f"(first elements {list(result[:12])!r})"
    )


def run_trial(
    algo: str, spec: DatasetSpec, mode: str = "count", trial: int = 0
) -> TrialRecord:
    """Run one (algorithm, dataset) measurement.

    Generates the dataset, sorts a clone, and verifies the clone against
    the sorted input before returning a record; a verification failure
    aborts with the offending spec and seed in the message.
    Timing modes do one untimed warm-up pass on a separate clone first.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sort = ALGORITHMS[algo]
    data = generate(spec)

    elapsed_ns: Optional[int] = None
    if mode in ("time", "both"):
        sort(list(data), stats=SortStats())  # warm-up
        work = list(data)
        stats = SortStats()
        t0 = time.perf_counter_ns()
        sort(work, stats=stats)
        elapsed_ns = time.perf_counter_ns() - t0
    else:
        work = list(data)
        stats = SortStats()
        sort(work, stats=stats)
    _verify(data, work, spec, algo)

    with_counters = mode in ("count", "both")
    return TrialRecord(
        algo=algo,
        dist=spec.kind,
        n=spec.n,
        k_param=spec.k_param,
        seed=spec.seed,
        trial=trial,
        comparisons=stats.comparisons if with_counters else None,
        assignments=stats.assignments if with_counters else None,
        swaps=stats.swaps if with_counters else None,
        sort_trips=stats.sort_trips if with_counters else None,
        terminated_by_equal=stats.terminated_by_equal if with_counters else None,
        elapsed_ns=elapsed_ns,
    )


GridEntry = Tuple[str, DatasetSpec, int]


def run_suite(
    grid: Iterable[GridEntry], mode: str = "count", base_seed: int = 0
) -> List[TrialRecord]:
    """Run every (algo, spec, trials) grid entry.

    Per-trial dataset seeds are split deterministically from
    (base_seed, algo, spec, trial), so a suite is reproducible and trials
    are independent.  Output order follows grid order, then trial order.
    """
    entries = list(grid)
    if not entries:
        raise ValueError("empty benchmark grid")
    records: List[TrialRecord] = []
    for algo, spec, trials in entries:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        for trial in range(trials):
            seed = derive_seed(
                base_seed, algo, spec.kind, spec.n, spec.k_param, spec.seed, trial
            )
            try:
                records.append(run_trial(algo, replace(spec, seed=seed), mode, trial))
            except VerificationError as exc:
                raise VerificationError(
                    f"grid entry (algo={algo}, spec={spec!r}, trial={trial}): {exc}"
                ) from exc
    return records


def _metric_value(record: TrialRecord, metric: str) -> float:
    value = getattr(record, metric)
    if value is None:
        raise ValueError(
            f"record {record.algo}/{record.dist}/n={record.n} trial "
            f"{record.trial} has no {metric} (wrong mode?)"
        )
    return float(value)


def ratio_table(
    records: Iterable[TrialRecord],
    numerator_algo: str,
    denominator_algo: str,
    metric: str,
) -> List[SummaryRow]:
    """Per-size mean(numerator metric) / mean(denominator metric).

    Records are matched on (dist, n, k_param); dispersion is the standard
    deviation of trial-paired ratios.  A size present for only one of the
    two algorithms is an error.
    """
    if metric not in ("comparisons", "assignments", "elapsed_ns"):
        raise ValueError(f"unsupported metric {metric!r}")
    groups: Dict[Tuple[str, int, Optional[int]], Dict[str, List[TrialRecord]]] = {}
    for rec in records:
        if rec.algo not in (numerator_algo, denominator_algo):
            continue
        key = (rec.dist, rec.n, rec.k_param)
        groups.setdefault(key, {}).setdefault(rec.algo, []).append(rec)

    rows: List[SummaryRow] = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2] or 0)):
        sides = groups[key]
        if numerator_algo not in sides or denominator_algo not in sides:
            raise ValueError(
                f"dataset {key} lacks records for both "
                f"{numerator_algo!r} and {denominator_algo!r}"
            )
        num = sorted(sides[numerator_algo], key=lambda r: r.trial)
        den = sorted(sides[denominator_algo], key=lambda r: r.trial)
        num_mean = statistics.fmean(_metric_value(r, metric) for r in num)
        den_mean = statistics.fmean(_metric_value(r, metric) for r in den)
        pairs = min(len(num), len(den))
        per_trial = [
            _metric_value(num[i], metric) / _metric_value(den[i], metric)
            for i in range(pairs)
        ]
        rows.append(
            SummaryRow(
                n=key[1],
                numerator=numerator_algo,
                denominator=denominator_algo,
                metric=metric,
                ratio=num_mean / den_mean,
                trials=pairs,
                dispersion=statistics.stdev(per_trial) if pairs > 1 else 0.0,
            )
        )
    if not rows:
        raise ValueError("no matching records for the requested ratio")
    return rows


def fit_scaling_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(metric) against log(n)."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    if any(n <= 0 or m <= 0 for n, m in points):
        raise ValueError("all points must be positive for a log-log fit")
    xs = [log(n) for n, _ in points]
    ys = [log(m) for _, m in points]
    return statistics.linear_regression(xs, ys).slope


def _format_field(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(rows: Iterable, out: TextIO) -> None:
    """Write trial records or summary rows; header always emitted,
    UTF-8 text with LF line endings."""
    rows = list(rows)
    if rows and isinstance(rows[0], SummaryRow):
        header = SUMMARY_HEADER
        cls = SummaryRow
    else:
        header = CSV_HEADER
        cls = TrialRecord
    writer = csv.writer(out, lineterminator="\n")
    names = header.split(",")
    writer.writerow(names)
    for row in rows:
        if not isinstance(row, cls):
            raise TypeError(f"mixed row types: expected {cls.__name__}, got {row!r}")
        writer.writerow([_format_field(getattr(row, name)) for name in names])


def _parse_field(name: str, text: str):
    if text == "":
        return None
    if name == "terminated_by_equal":
        return text == "true"
    if name in ("algo", "dist"):
        return text
    return int(text)


def read_csv(source: TextIO) -> List[TrialRecord]:
    """Parse a trial CSV written by :func:`write_csv`; raises ``ValueError``
    on a foreign header, a short or long row, or a malformed number."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {header!r}")
    names = [f.name for f in fields(TrialRecord)]
    out = []
    for row in reader:
        if len(row) != len(names):
            raise ValueError(
                f"line {reader.line_num}: {len(row)} fields, expected {len(names)}"
            )
        values = {name: _parse_field(name, text) for name, text in zip(names, row)}
        out.append(TrialRecord(**values))
    return out
