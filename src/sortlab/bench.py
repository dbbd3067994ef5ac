"""Benchmark harness: trial runner, ratio tables, scaling fits, CSV I/O.

Count-mode results are bit-reproducible for a given grid and base seed;
wall-clock timing is inherently machine-dependent and treated as
report-only evidence.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import asdict, dataclass, fields, replace
from math import log
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .baselines import insertion_sort, quicksort_mo3
from .bcis import bcis_sort
from .datagen import DatasetSpec, derive_seed, generate

ALGORITHMS = {
    "bcis": bcis_sort,
    "is": insertion_sort,
    "qs": quicksort_mo3,
}

MODES = ("count", "time")

#: Trial-record fields a ratio table or a scaling fit can be taken over.
METRICS = ("comparisons", "assignments", "elapsed_ns")


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
    comparisons: int
    assignments: int
    swaps: int
    sort_trips: int
    terminated_by_equal: bool
    elapsed_ns: Optional[int]


#: Bit-exact trial CSV header: the :class:`TrialRecord` fields in order.
CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class SummaryRow:
    n: int
    numerator: str
    denominator: str
    metric: str
    ratio: float
    trials: int
    dispersion: float


def _verify(original: List, result: Sequence, what: str) -> None:
    """Check that ``result`` equals ``original`` sorted, which for total
    orders means sorted with the multiset kept; ``what`` names the sort and
    its input in the error.  Sorts ``original`` in place, so no third
    n-sized list is held."""
    original.sort()
    if result == original:
        return
    raise VerificationError(
        f"{what}: output is not the sorted input "
        f"(first elements {list(result[:12])!r})"
    )


def _check_trial(algo: str, mode: str) -> None:
    """Raise ``ValueError`` unless ``algo`` is known and can run in ``mode``."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {tuple(ALGORITHMS)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def run_trial(
    algo: str, spec: DatasetSpec, mode: str = "count", trial: int = 0
) -> TrialRecord:
    """Run one (algorithm, dataset) measurement.

    Raises ``ValueError`` for an unknown algorithm or mode.  Generates the
    dataset, sorts a clone, and verifies the clone against the sorted
    input before returning a record; a verification failure aborts with
    the offending spec and seed in the message.  The record always carries
    the sort's counters; a ``time`` trial also sets ``elapsed_ns``, timing
    the sort after one untimed warm-up pass on a separate clone.
    """
    _check_trial(algo, mode)
    sort = ALGORITHMS[algo]
    data = generate(spec)

    if mode == "time":
        sort(list(data))  # warm-up
    work = list(data)
    t0 = time.perf_counter_ns()
    stats = sort(work)
    elapsed_ns = time.perf_counter_ns() - t0 if mode == "time" else None
    _verify(data, work, f"{algo} on {spec!r}, trial {trial}")

    return TrialRecord(
        algo=algo,
        dist=spec.kind,
        n=spec.n,
        k_param=spec.k_param,
        seed=spec.seed,
        trial=trial,
        elapsed_ns=elapsed_ns,
        **asdict(stats),
    )


GridEntry = Tuple[str, DatasetSpec, int]


def run_suite(
    grid: Iterable[GridEntry], mode: str = "count", base_seed: int = 0
) -> List[TrialRecord]:
    """Run every (algo, spec, trials) grid entry.

    Every entry is checked before the first trial runs: an empty grid, an
    unknown algorithm or mode, fewer than one trial or a repeated (algo,
    kind, n, k_param) cell, which would repeat trial ids, is a
    ``ValueError``.  Per-trial dataset seeds are split deterministically
    from (base_seed, algo, spec, trial), so a suite is reproducible and
    trials are independent.  Output order follows grid order, then trial
    order.
    """
    entries = list(grid)
    if not entries:
        raise ValueError("empty benchmark grid")
    cells = set()
    for algo, spec, trials in entries:
        _check_trial(algo, mode)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        cell = (algo, spec.kind, spec.n, spec.k_param)
        if cell in cells:
            raise ValueError(f"grid cell {cell} appears twice")
        cells.add(cell)
    records: List[TrialRecord] = []
    for algo, spec, trials in entries:
        for trial in range(trials):
            seed = derive_seed(
                base_seed, algo, spec.kind, spec.n, spec.k_param, spec.seed, trial
            )
            records.append(run_trial(algo, replace(spec, seed=seed), mode, trial))
    return records


#: Trials of one dataset by size: ``{(dist, n, k_param): {algo: {trial: value}}}``.
TrialsBySize = Dict[Tuple[str, int, Optional[int]], Dict[str, Dict[int, float]]]


def trials_by_size(
    records: Iterable[TrialRecord], algos: Sequence[str], metric: str
) -> TrialsBySize:
    """Each ``metric`` value of the records of ``algos``, grouped by size,
    then algorithm, then trial id.

    An unsupported metric, a record without the metric (as a count trial
    lacks ``elapsed_ns``), a trial id repeated within one algorithm's
    records of a size, or records of more than one (dist, k_param) dataset
    is a ``ValueError``.
    """
    if metric not in METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    groups: TrialsBySize = {}
    for rec in records:
        if rec.algo not in algos:
            continue
        key = (rec.dist, rec.n, rec.k_param)
        by_trial = groups.setdefault(key, {}).setdefault(rec.algo, {})
        if rec.trial in by_trial:
            raise ValueError(f"dataset {key} has trial {rec.trial} twice for {rec.algo!r}")
        value = getattr(rec, metric)
        if value is None:
            raise ValueError(
                f"record {rec.algo}/{rec.dist}/n={rec.n} trial "
                f"{rec.trial} has no {metric} (wrong mode?)"
            )
        by_trial[rec.trial] = float(value)
    datasets = sorted({(dist, k_param) for dist, _, k_param in groups}, key=repr)
    if len(datasets) > 1:
        raise ValueError(f"records cover datasets {datasets}; reduce one at a time")
    return groups


def ratio_table(
    records: Iterable[TrialRecord],
    numerator_algo: str,
    denominator_algo: str,
    metric: str,
) -> List[SummaryRow]:
    """Per-size mean(numerator metric) / mean(denominator metric).

    Records are grouped by :func:`trials_by_size` and so carry its errors;
    dispersion is the standard deviation of the per-trial ratios of the
    trial ids both algorithms ran.  A size present for only one algorithm,
    a zero denominator or no selected record at all is also an error.
    """
    groups = trials_by_size(records, (numerator_algo, denominator_algo), metric)
    rows: List[SummaryRow] = []
    for key in sorted(groups):  # one dataset, so the keys differ in n alone
        sides = groups[key]
        if numerator_algo not in sides or denominator_algo not in sides:
            raise ValueError(
                f"dataset {key} lacks records for both "
                f"{numerator_algo!r} and {denominator_algo!r}"
            )
        num = sides[numerator_algo]
        den = sides[denominator_algo]
        if 0 in den.values():
            raise ValueError(
                f"dataset {key} has a zero {metric} for {denominator_algo!r}; "
                "the ratio is undefined"
            )
        shared = sorted(num.keys() & den.keys())
        per_trial = [num[t] / den[t] for t in shared]
        rows.append(
            SummaryRow(
                n=key[1],
                numerator=numerator_algo,
                denominator=denominator_algo,
                metric=metric,
                ratio=statistics.fmean(num.values()) / statistics.fmean(den.values()),
                trials=len(shared),
                dispersion=statistics.stdev(per_trial) if len(shared) > 1 else 0.0,
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
    """Write trial records or summary rows, one column per field of the
    first row's dataclass (:class:`TrialRecord` when there are none);
    header always emitted, UTF-8 text with LF line endings."""
    rows = list(rows)
    cls = type(rows[0]) if rows else TrialRecord
    names = [f.name for f in fields(cls)]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        if not isinstance(row, cls):
            raise TypeError(f"mixed row types: expected {cls.__name__}, got {row!r}")
        writer.writerow([_format_field(getattr(row, name)) for name in names])


def _parse_field(name: str, text: str):
    if text == "":
        if name in ("k_param", "elapsed_ns"):
            return None
        raise ValueError("must not be blank")
    if name == "terminated_by_equal":
        if text not in ("true", "false"):
            raise ValueError(f"must be true or false, got {text!r}")
        return text == "true"
    if name in ("algo", "dist"):
        return text
    value = int(text)
    # DatasetSpec checks n and k_param; a seed may be any integer.
    if value < 0 and name not in ("n", "k_param", "seed"):
        raise ValueError(f"must be nonnegative, got {value}")
    return value


def read_csv(source: TextIO) -> List[TrialRecord]:
    """Parse a trial CSV written by :func:`write_csv`; raises ``ValueError``
    on a foreign header, a short or long row, a malformed field or an
    invalid :class:`DatasetSpec`, naming the line (and a bad field's column)."""
    names = CSV_HEADER.split(",")
    reader = csv.reader(source)
    header = next(reader, None)
    if header != names:
        raise ValueError(f"unexpected CSV header: {header!r}")
    out = []
    for row in reader:
        if len(row) != len(names):
            raise ValueError(
                f"line {reader.line_num}: {len(row)} fields, expected {len(names)}"
            )
        values = {}
        for name, text in zip(names, row):
            try:
                values[name] = _parse_field(name, text)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {name}: {exc}") from None
        try:
            DatasetSpec(values["dist"], values["n"], values["seed"], values["k_param"])
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        out.append(TrialRecord(**values))
    return out
