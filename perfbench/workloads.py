"""The benchmark's workloads: their grids, one timed repetition each, and
the checks of a repetition's outputs against the pinned golden outputs.

Every call into sortlab goes through a module attribute
(``bench.run_suite``, ``acceptance.check_reverse_bound``, ...), so the
tracer in :mod:`tracing` can wrap those names without touching sortlab.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from sortlab import acceptance, bench
from sortlab.datagen import DatasetSpec

#: Seed at which the golden outputs were pinned.
DEFAULT_SEED = 0

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Gate criteria that finish in seconds; the slow ones (#1, #7, #8, #9,
#: #11) take minutes per run and are left to the test suite.
GATE_CHECKS = (
    "check_all_equal_linear",
    "check_sorted_bound",
    "check_reverse_bound",
    "check_worst_construction",
    "check_best_construction",
    "check_cost_models",
    "check_determinism",
)

COUNTERS = ("comparisons", "assignments", "swaps", "sort_trips", "terminated_by_equal")

Grid = List[Tuple[str, DatasetSpec, int]]


@dataclass
class Rep:
    """What one timed repetition of a workload did and produced."""

    seconds: float
    attempted: int
    #: Indices of the operations (trials or criteria) that failed.
    failed: List[int] = field(default_factory=list)
    #: Outputs compared across repetitions and against the golden file.
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Trial records of a bench workload, for the trace's counter check.
    records: List[bench.TrialRecord] = field(default_factory=list)
    #: Self-check failures that are not tied to one operation.
    problems: List[str] = field(default_factory=list)
    #: Spans recorded while the repetition ran traced.
    spans: list = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _fit_points(records, algo: str, dist: str) -> List[Tuple[int, float]]:
    """Mean comparisons per size, as ``sortlab fit`` computes them."""
    by_n: Dict[int, List[float]] = {}
    for rec in records:
        if rec.algo == algo and rec.dist == dist:
            by_n.setdefault(rec.n, []).append(float(rec.comparisons))
    return [(n, statistics.fmean(vals)) for n, vals in sorted(by_n.items())]


@dataclass(frozen=True)
class BenchWorkload:
    """A ``sortlab bench`` grid followed by the CSV round trip and the
    ``summary``/``fit`` reductions of the records read back."""

    name: str
    grid: Callable[[], Grid]
    ratios: Tuple[Tuple[str, str], ...] = ()
    fits: Tuple[Tuple[str, str], ...] = ()

    def run(self, seed: int) -> Rep:
        grid = self.grid()
        attempted = sum(trials for _, _, trials in grid)
        t0 = time.perf_counter()
        try:
            records = bench.run_suite(grid, mode="count", base_seed=seed)
        except bench.VerificationError as exc:
            # run_suite stops at the first bad trial, so none of the
            # repetition's trials has a usable result.
            rep = Rep(time.perf_counter() - t0, attempted, list(range(attempted)))
            rep.problems.append(f"verification error: {exc}")
            return rep
        buf = io.StringIO()
        bench.write_csv(records, buf)
        text = buf.getvalue()
        back = bench.read_csv(io.StringIO(text))
        summaries = []
        for num, den in self.ratios:
            rows = bench.ratio_table(back, num, den, "comparisons")
            sbuf = io.StringIO()
            bench.write_csv(rows, sbuf)
            summaries.append(sbuf.getvalue())
        slopes = {
            f"{algo}/{dist}": bench.fit_scaling_exponent(_fit_points(back, algo, dist))
            for algo, dist in self.fits
        }
        seconds = time.perf_counter() - t0

        rep = Rep(seconds, attempted, records=records)
        rep.outputs = {"csv": text, "summaries": summaries, "fits": slopes}
        if len(records) != attempted:
            rep.problems.append(f"{len(records)} records for {attempted} trials")
        if back != records:
            rep.problems.append("read_csv(write_csv(records)) != records")
        return rep


@dataclass(frozen=True)
class GateWorkload:
    """The fast acceptance criteria, each through its public function.

    The gate fixes its own seed, so the workload seed does not change it.
    """

    name: str

    def grid(self) -> List[str]:
        return list(GATE_CHECKS)

    def run(self, seed: int) -> Rep:
        checks = self.grid()
        t0 = time.perf_counter()
        results = [getattr(acceptance, name)({}) for name in checks]
        seconds = time.perf_counter() - t0
        rep = Rep(seconds, len(checks))
        rep.failed = [i for i, r in enumerate(results) if not r.passed]
        rep.outputs = {"criteria": [[r.name, r.passed, r.detail] for r in results]}
        return rep


def _uniform_grid() -> Grid:
    return [
        (algo, DatasetSpec("uniform", 2**e), 4)
        for algo in ("bcis", "qs")
        for e in range(10, 15)
    ]


def _baselines_grid() -> Grid:
    return (
        [("is", DatasetSpec("uniform", 2**e), 2) for e in range(9, 12)]
        + [("qs", DatasetSpec("uniform", 2**e), 2) for e in range(14, 17)]
        + [("qs", DatasetSpec("k_distinct", 2**16, k_param=50), 2)]
    )


def _structured_grid() -> Grid:
    return [
        ("bcis", DatasetSpec("equal", 10**6), 1),
        ("bcis", DatasetSpec("sorted", 10**6), 1),
        ("bcis", DatasetSpec("k_distinct", 10**5, k_param=50), 1),
        ("qs", DatasetSpec("uniform", 2**18), 1),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload(
            "uniform-grid",
            _uniform_grid,
            ratios=(("bcis", "qs"),),
            fits=(("bcis", "uniform"),),
        ),
        BenchWorkload(
            "baselines-grid",
            _baselines_grid,
            fits=(("is", "uniform"), ("qs", "uniform")),
        ),
        BenchWorkload("structured-large", _structured_grid),
        GateWorkload("gate-subset"),
    )
}


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    return json.loads(golden_path(workload).read_text(encoding="utf-8"))


def golden_applies(workload: str, seed: int) -> bool:
    """Bench goldens were pinned at :data:`DEFAULT_SEED`; the gate's
    inputs do not depend on the seed, so its golden holds at any seed."""
    return seed == DEFAULT_SEED or isinstance(WORKLOADS[workload], GateWorkload)


def _parse_counters(row: Dict[str, str]) -> Tuple:
    return tuple(
        row[c] == "true" if c == "terminated_by_equal" else int(row[c])
        for c in COUNTERS
    )


def trial_failures(records, csv_text: str, golden: dict) -> List[int]:
    """Indices of the trials whose five counters or CSV row differ from
    the golden run.  The golden CSV is parsed with the csv module, not
    with sortlab's reader, so a reader bug cannot hide a counter change.
    """
    want = list(csv.DictReader(io.StringIO(golden["csv"])))
    want_lines = golden["csv"].splitlines()
    got_lines = csv_text.splitlines()
    bad = []
    for i in range(max(len(records), len(want))):
        if i >= len(records) or i >= len(want):
            bad.append(i)
            continue
        counters = tuple(getattr(records[i], c) for c in COUNTERS)
        row_ok = i + 1 < len(got_lines) and got_lines[i + 1] == want_lines[i + 1]
        if counters != _parse_counters(want[i]) or not row_ok:
            bad.append(i)
    return bad


def check_golden(rep: Rep, golden: dict) -> None:
    """Mark the repetition's operations that differ from the golden run
    as failed, and record any other difference as a problem."""
    out = rep.outputs
    if "criteria" in golden:
        want, got = golden["criteria"], out.get("criteria", [])
        failed = [
            i
            for i in range(max(len(want), len(got)))
            if i >= len(want) or i >= len(got) or got[i] != want[i]
        ]
    else:
        failed = trial_failures(rep.records, out.get("csv", ""), golden)
        if out:
            if out["csv"].splitlines()[:1] != golden["csv"].splitlines()[:1]:
                rep.problems.append("trial CSV header differs from the golden run")
            if out["summaries"] != golden["summaries"]:
                rep.problems.append("summary CSV differs from the golden run")
            fits_match = out["fits"].keys() == golden["fits"].keys() and all(
                math.isclose(out["fits"][k], golden["fits"][k], rel_tol=1e-12)
                for k in golden["fits"]
            )
            if not fits_match:
                rep.problems.append(f"fits {out['fits']} differ from {golden['fits']}")
    rep.failed = sorted(set(rep.failed) | set(failed))
