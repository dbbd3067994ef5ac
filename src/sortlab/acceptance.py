"""Acceptance gate: the binding correctness and complexity checks.

Each criterion is registered with :func:`criterion` where it is defined;
the runner executes them in that order, one pass/fail line per criterion.
Operation counts are the binding signal; the wall-time tables are
informational because absolute timing is machine-dependent.  Only the
kinds in ``datagen.SAMPLED`` vary with the seed, so the criteria on fixed
inputs (#2 to #6) run one trial per size, and only the ``uniform`` means
average over ``AVG_TRIALS`` seeds.

In CPython the 20-seed BCIS scaling sweep (#7) dominates the full gate's
time, then the wall-time tables (#11) and correctness (#1); README
"Tests" gives the measured seconds.
"""

from __future__ import annotations

import functools
import io
import random
import statistics
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from . import models
from .bench import ALGORITHMS, VerificationError, _verify, fit_scaling_exponent, run_suite, run_trial, write_csv
from .datagen import VALUE_BOUND, DatasetSpec, _below, derive_seed
# Unused here; kept because perfbench/tracing.py wraps acceptance.generate by name.
from .datagen import generate  # noqa: F401

BASE_SEED = 20210621
AVG_TRIALS = 20


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    report_only: bool = False

    def line(self) -> str:
        tag = "INFO" if self.report_only else ("PASS" if self.passed else "FAIL")
        return f"{tag}  {self.number:2d}. {self.name}: {self.detail}"


#: Mean (comparisons, assignments) on ``uniform`` input per ``(algo, n, label)``,
#: shared by the criteria of one gate run.
Cache = Dict[Tuple[str, int, str], Tuple[float, float]]
#: What a criterion's body returns: whether it passed, and the detail text.
Verdict = Tuple[bool, str]

#: Every criterion, in definition order; filled by :func:`criterion`.
CRITERIA: List[Callable[[Cache], CheckResult]] = []


def criterion(number: int, name: str, report_only: bool = False):
    """Register the decorated check as gate criterion ``number``.

    The body takes the shared cache and returns a :data:`Verdict`; the
    registered function returns the :class:`CheckResult` built from it and
    carries ``number``, ``name`` and ``report_only`` as attributes.
    """

    def register(body: Callable[[Cache], Verdict]) -> Callable[[Cache], CheckResult]:
        @functools.wraps(body)
        def check(cache: Cache) -> CheckResult:
            ok, detail = body(cache)
            return CheckResult(number, name, ok, detail, report_only)

        check.number = number
        check.name = name
        check.report_only = report_only
        CRITERIA.append(check)
        return check

    return register


def _mean_counts(cache: Cache, algo: str, n: int, label: str) -> Tuple[float, float]:
    """Mean (comparisons, assignments) over ``AVG_TRIALS`` seeded ``uniform``
    trials, run once per cache."""
    key = (algo, n, label)
    if key not in cache:
        seeds = [derive_seed(BASE_SEED, label, algo, "uniform", n, t) for t in range(AVG_TRIALS)]
        recs = [run_trial(algo, DatasetSpec("uniform", n, seed=seed)) for seed in seeds]
        cache[key] = (statistics.fmean(r.comparisons for r in recs),
                      statistics.fmean(r.assignments for r in recs))
    return cache[key]


def _correctness_inputs() -> Iterator[Tuple[str, Sequence[int]]]:
    """(label, input): every tuple over {0, 1, 2} up to length 10, then 1000 random lists."""
    for length in range(11):
        for tup in product((0, 1, 2), repeat=length):
            yield repr(tup), tup
    rng = random.Random(derive_seed(BASE_SEED, "oracle"))
    for _ in range(1000):
        n = rng.randrange(0, 2001)
        yield f"random n={n}", _below(rng, VALUE_BOUND, n)


@criterion(1, "correctness")
def check_correctness(cache: Cache) -> Verdict:
    """Exhaustive small inputs plus randomized oracle equivalence; a wrong
    output raises :class:`VerificationError` naming the sort and input."""
    cases = 0
    for label, data in _correctness_inputs():
        expected = list(data)  # the first _verify sorts it in place
        for algo, sort in ALGORITHMS.items():
            work = list(data)
            sort(work)
            _verify(expected, work, f"{algo} on {label}")
        cases += 1
    return True, f"{cases} cases, zero failures"


@criterion(2, "all-equal linearity")
def check_all_equal_linear(cache: Cache) -> Verdict:
    worst = 0.0
    for n in (10**3, 10**4, 10**5, 10**6):
        rec = run_trial("bcis", DatasetSpec("equal", n))
        if rec.comparisons > 2 * n or rec.sort_trips != 1 or not rec.terminated_by_equal:
            return False, f"n={n}: comps={rec.comparisons} trips={rec.sort_trips}"
        worst = max(worst, rec.comparisons / n)
    return True, f"comps <= 2n (max comps/n={worst:.3f}), 1 trip"


def _within(ratios: Dict[int, float], lo: float, hi: float, form: str) -> Verdict:
    """(every ratio in [lo, hi], "n=…: <form>, … in|outside [lo, hi]")."""
    ok = all(lo <= r <= hi for r in ratios.values())
    detail = ", ".join(f"n={n}: {form.format(r)}" for n, r in ratios.items())
    return ok, f"{detail} {'in' if ok else 'outside'} [{lo}, {hi}]"


@criterion(3, "sorted-array bound")
def check_sorted_bound(cache: Cache) -> Verdict:
    ratios = {n: run_trial("bcis", DatasetSpec("sorted", n)).comparisons / n
              for n in (10**4, 10**5)}
    return _within(ratios, 2, 6, "comps/n={:.3f}")


@criterion(4, "reverse-sorted bound")
def check_reverse_bound(cache: Cache) -> Verdict:
    ratios = {
        n: run_trial("bcis", DatasetSpec("reverse", n)).comparisons / models.bcis_worst_reverse(n)
        for n in (10**3, 10**4)
    }
    return _within(ratios, 0.8, 1.3, "{:.4f}")


@criterion(5, "small-n worst construction")
def check_worst_construction(cache: Cache) -> Verdict:
    worst_ratio = 0.0
    for n in (10, 50, 99):
        target = models.bcis_worst_small(n)
        rec = run_trial("bcis", DatasetSpec("worst_small", n))
        ratio = rec.comparisons / target
        if not 0.9 <= ratio <= 1.1:
            return False, f"n={n}: comps={rec.comparisons} vs {target:.0f}"
        worst_ratio = max(worst_ratio, abs(ratio - 1))
    return True, f"comps within 10% of n(n-1)/2 (max deviation {worst_ratio:.1%})"


@criterion(6, "small-n best construction")
def check_best_construction(cache: Cache) -> Verdict:
    for n in (10, 50, 99):
        rec = run_trial("bcis", DatasetSpec("best_small", n))
        if rec.comparisons > 3 * n or rec.assignments > 3 * n:
            counts = f"comps={rec.comparisons} assigns={rec.assignments}"
            return False, f"n={n}: {counts} > 3n={3*n}"
    return True, "comps and assigns <= 3n at n in {10,50,99}"


@criterion(7, "average-case scaling")
def check_average_scaling(cache: Cache) -> Verdict:
    means = []
    for e in range(10, 18):
        n = 2**e
        mc, ma = _mean_counts(cache, "bcis", n, "scaling")
        if not ma < mc:
            return False, f"n={n}: assigns {ma:.0f} >= comps {mc:.0f}"
        means.append((n, mc))
        if n == 2**13:
            model = models.bcis_avg_comparisons(n)
            if not model / 2 <= mc <= model * 2:
                return False, f"n=2^13: comps {mc:.0f} not within 2x of model {model:.0f}"
            factor_213 = mc / model
    slope = fit_scaling_exponent(means)
    if not 1.35 <= slope <= 1.65:
        return False, f"slope={slope:.3f}"
    return (
        True,
        f"slope={slope:.3f} in [1.35, 1.65]; assigns < comps; "
        f"2^13 measured/model={factor_213:.3f}",
    )


@criterion(8, "insertion-sort fidelity")
def check_is_fidelity(cache: Cache) -> Verdict:
    ratios = {n: _mean_counts(cache, "is", n, "isbase")[0] / (n * n / 4)
              for n in (10**3, 10**4)}
    return _within(ratios, 0.9, 1.1, "{:.4f}")


@criterion(9, "bcis/is comparison ratio")
def check_count_ratio(cache: Cache) -> Verdict:
    n = 10**4
    bcis_mean, _ = _mean_counts(cache, "bcis", n, "cmpratio")
    ratio = bcis_mean / _mean_counts(cache, "is", n, "isbase")[0]
    ok = 0.02 <= ratio <= 0.10
    return ok, f"n=10^4: {ratio:.4f} {'in' if ok else 'outside'} [0.02, 0.10]"


# (function, args, expected) substitution table; expectations are the
# documented point values of each model.
MODEL_POINTS = [
    (models.is_avg_comparisons, (1,), 0.0),
    (models.is_avg_comparisons, (10,), 31.5),
    (models.is_avg_comparisons, (10000,), 25_007_499.0),
    (models.is_avg_assignments, (0,), 3.0),
    (models.is_avg_assignments, (10,), 45.5),
    (models.is_avg_assignments, (100,), 2678.0),
    (models.bcis_trip_comparisons, (4,), 1.5),
    (models.bcis_trip_comparisons, (8,), 6.0),
    (models.bcis_trip_comparisons, (16,), 21.0),
    (models.bcis_trip_assignments, (4,), 8.5),
    (models.bcis_trip_assignments, (8,), 15.0),
    (models.bcis_trip_assignments, (16,), 34.0),
    (models.bcis_general_comparisons, (10, 2), 40.0),
    (models.bcis_general_comparisons, (8, 8), 12.0),
    (models.bcis_general_comparisons, (100, 10), 1080.0),
    (models.bcis_avg_comparisons, (4,), 4.0),
    (models.bcis_avg_comparisons, (10000,), 1_122_300.0),
    (models.bcis_avg_assignments, (4,), 24.0),
    (models.bcis_avg_assignments, (10000,), 143_300.0),
    (models.bcis_best_small, (1,), 1.0),
    (models.bcis_best_small, (50,), 50.0),
    (models.bcis_best_small, (99,), 99.0),
    (models.bcis_best_sorted, (100,), 400.0),
    (models.bcis_best_sorted, (10**4,), 4.0 * 10**4),
    (models.bcis_best_sorted, (0,), 0.0),
    (models.bcis_worst_small, (2,), 1.0),
    (models.bcis_worst_small, (10,), 45.0),
    (models.bcis_worst_small, (99,), 4851.0),
    (models.bcis_worst_reverse, (6,), 15.0),
    (models.bcis_worst_reverse, (100,), 100**2 / 6 + 150),
    (models.bcis_worst_reverse, (10**4,), 10**8 / 6 + 1.5 * 10**4),
]


@criterion(10, "cost-model units")
def check_cost_models(cache: Cache) -> Verdict:
    for func, args, expected in MODEL_POINTS:
        got = func(*args)
        err = abs(got - expected) / max(abs(expected), 1.0)
        if err > 1e-12:
            return False, f"{func.__name__}{args} = {got}, want {expected}"
    # The k-sweep minimum must sit near sqrt(n).
    for n in (10**2, 10**4, 10**6):
        root = n**0.5
        ks = sorted({max(2, min(n, round(root * 2**i))) for i in range(-8, 9)} | {2, n})
        best_k = min(ks, key=lambda k: models.bcis_general_comparisons(n, k))
        at_root = models.bcis_general_comparisons(n, root)
        if not root / 4 <= best_k <= root * 4:
            return False, f"n={n}: k-sweep minimum at {best_k}"
        if at_root > models.bcis_general_comparisons(n, 2) or at_root > models.bcis_general_comparisons(n, n):
            return False, f"n={n}: sqrt(n) load not below endpoints"
    return True, f"{len(MODEL_POINTS)} substitutions exact; k-sweep minimum near sqrt(n)"


@criterion(11, "wall-time ratio tables", report_only=True)
def check_timing_report(cache: Cache) -> Verdict:
    """Report-only wall-time ratios; never fails."""
    cells = [(DatasetSpec("uniform", n), 5) for n in (64, 128, 256, 512, 1024, 1400)]
    cells += [
        (DatasetSpec("k_distinct", n, k_param=50), trials)
        for n, trials in ((10**4, 5), (10**5, 5), (10**6, 3))
    ]
    lines = ["bcis/qs wall-time ratios (machine-dependent, informational):"]
    for spec, trials in cells:
        records = run_suite(
            [("bcis", spec, trials), ("qs", spec, trials)], mode="time", base_seed=BASE_SEED
        )
        med = {
            algo: statistics.median(r.elapsed_ns for r in records if r.algo == algo)
            for algo in ("bcis", "qs")
        }
        label = spec.kind if spec.k_param is None else f"{spec.kind}(k={spec.k_param})"
        lines.append(
            f"    {label:<16} n={spec.n:<8} bcis/qs time = {med['bcis'] / med['qs']:.3f}"
            f"  (medians over {trials} trials, ns: {med['bcis']:.0f} / {med['qs']:.0f})"
        )
    return True, "\n".join(lines)


@criterion(12, "count-mode determinism")
def check_determinism(cache: Cache) -> Verdict:
    grid = [
        ("bcis", DatasetSpec("uniform", 500), 3),
        ("is", DatasetSpec("uniform", 500), 3),
        ("qs", DatasetSpec("k_distinct", 300, k_param=7), 2),
        ("bcis", DatasetSpec("equal", 200), 1),
    ]
    blobs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_suite(grid, mode="count", base_seed=BASE_SEED), buf)
        blobs.append(buf.getvalue().encode("utf-8"))
    ok = blobs[0] == blobs[1]
    return ok, "identical invocations give byte-identical CSV" if ok else "CSV bytes differ"


def run_acceptance() -> List[CheckResult]:
    """Run every criterion, printing each result line as it completes;
    returns all results in order.

    A criterion that raises, whether its trial fails verification or its
    arithmetic breaks on a sort that stops counting, is a failed result,
    and the gate goes on.
    """
    results = []
    cache: Cache = {}
    for check in CRITERIA:
        try:
            result = check(cache)
        except Exception as exc:
            what = "verification failure" if isinstance(exc, VerificationError) else type(exc).__name__
            result = CheckResult(check.number, check.name, False, f"{what}: {exc}")
        results.append(result)
        print(result.line())
    return results
