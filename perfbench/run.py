"""sortlab's benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform-grid --seed 0 --seconds 30 --trace 0

The workload repeats its fixed work for about ``--seconds`` seconds in
this one process, with no worker threads.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, with times calibrated against
a fixed kernel timed around each measurement (see ``README.md`` here).
``--trace 1`` spends part of the time untraced and the rest traced,
prints the per-layer metrics and writes the spans to ``.perfbench-out/``.  Every repetition's outputs are
checked: sortlab verifies each trial, the CSV must read back to the same
records, all repetitions (traced or not) must produce identical outputs,
and at the default seed they must equal the pinned golden outputs.

The last line of stdout is the result as JSON; the line before it holds
the environment, sample counts and output digests.  Exit code 2 means
sortlab could not be imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 9
#: Share of a traced run's seconds spent on untraced repetitions, which
#: give the base of ``trace.overhead_share``.
UNTRACED_SHARE = 0.4
#: Calibration runs between two repetitions; their median is taken.
CALIBRATIONS_BETWEEN = 3
#: End-to-end times are scaled to a machine on which :func:`calibrate`
#: takes this many seconds (about what it takes on a 2-vCPU x86-64 VM
#: with CPython 3.11).
CALIBRATION_REF_S = 0.04
_CALIBRATION_INPUT = tuple(range(700, 0, -1))


def calibrate() -> float:
    """Seconds for a fixed pure-Python insertion sort, a gauge of how fast
    this machine runs Python code at the moment.  The benchmark owns this
    code, so it does not change with sortlab."""
    t0 = time.perf_counter()
    for _ in range(3):
        a = list(_CALIBRATION_INPUT)
        for i in range(1, len(a)):
            x = a[i]
            j = i - 1
            while j >= 0 and a[j] > x:
                a[j + 1] = a[j]
                j -= 1
            a[j + 1] = x
    return time.perf_counter() - t0


def import_sortlab():
    """Import sortlab from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sortlab

    if not Path(sortlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sortlab was imported from {sortlab.__file__}, not {src}")
    return sortlab


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(sortlab) -> Dict[str, object]:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sortlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "sortlab": sortlab.__version__,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to a built grid."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return (int(done.stdout.split()[-1]) - t0) / 1e9


def repeat(run_once: Callable, budget_s: float, between: Callable = lambda: None) -> list:
    """Run repetitions while the next one is expected to end in budget,
    calling ``between`` after each."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_once())
        between()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.seconds for r in reps) > budget_s:
            return reps


def high_percentile(samples: List[float]) -> Optional[Dict[str, float]]:
    """The highest sample with at least ten samples beyond it, and its
    percentile rank; None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    i = len(ordered) - 11
    return {"percentile": 100 * i / (len(ordered) - 1), "value": ordered[i]}


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def calibrated(times: List[float], calibrations: List[float]) -> float:
    """Median of each time over the mean calibration time taken just
    before and just after it, in seconds at the reference speed."""
    ratios = [t / ((a + b) / 2) for t, a, b in zip(times, calibrations, calibrations[1:])]
    return statistics.median(ratios) * CALIBRATION_REF_S


def calibrated_reps(run_once: Callable, seconds: float):
    """Repetitions, each timed between two sets of calibration runs, and
    the median calibration time before and after each."""
    cal: List[float] = []

    def calibrate_between():
        cal.append(statistics.median(calibrate() for _ in range(CALIBRATIONS_BETWEEN)))

    calibrate_between()
    return repeat(run_once, seconds, between=calibrate_between), cal


def measure_end_to_end(run_once: Callable, workload: str, seconds: float):
    """Set-up probes and untraced repetitions, each timed between runs of
    the calibration kernel.  Returns the repetitions, the end-to-end
    metrics and the raw figures behind them."""
    # Probes run first: a child's ru_maxrss starts at its parent's RSS
    # when forked, so later probes would read as large as the run.
    setup, setup_cal = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        setup.append(probe_setup(workload))
        setup_cal.append(calibrate())
    reps, rep_cal = calibrated_reps(run_once, seconds)
    walls = [r.seconds for r in reps]
    # This machine's speed drifts by tens of percent within seconds as
    # other tenants come and go; the calibration kernel, timed around each
    # measurement, slows down with it.
    values = {
        "wall_s": calibrated(walls, rep_cal),
        "setup_s": calibrated(setup, setup_cal),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "wall_s_raw": {"median": statistics.median(walls), "high": high_percentile(walls)},
        "setup_s_raw": statistics.median(setup),
        "calibration_s": {"setup": statistics.median(setup_cal), "reps": statistics.median(rep_cal)},
        "samples": {"reps": len(reps), "setup_probes": len(setup)},
    }
    return reps, values, raw


def measure_layers(run_once: Callable, seconds: float, tracing, trace_path: Path):
    """Untraced, then traced repetitions.  Returns all repetitions, the
    per-layer metrics of the median traced one, and the raw figures."""
    reps, cal = calibrated_reps(run_once, seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()

    def run_traced():
        first = len(tracer.spans)
        rep = run_once()
        rep.spans = tracer.spans[first:]
        return rep

    with tracer.installed():
        traced, traced_cal = calibrated_reps(run_traced, seconds * (1 - UNTRACED_SHARE))
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)

    mid = sorted(traced, key=lambda r: r.seconds)[(len(traced) - 1) // 2]
    values = tracing.layer_metrics(mid.spans, mid.seconds)
    values["trace.untraced_wall_s"] = statistics.median(r.seconds for r in reps)
    # Compared in calibrated time, as the two phases may see the machine
    # at different speeds.
    values["trace.overhead_share"] = (
        calibrated([r.seconds for r in traced], traced_cal)
        / calibrated([r.seconds for r in reps], cal)
        - 1
    )
    mid.problems += tracing.consistency_problems(values, mid)
    raw = {"samples": {"reps": len(reps), "traced_reps": len(traced)}}
    return reps + traced, values, raw


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sortlab = import_sortlab()
    except ImportError as exc:
        print(f"perfbench: cannot import sortlab from this checkout: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    run_once = functools.partial(workloads.WORKLOADS[args.workload].run, seed)
    if args.trace:
        trace_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{seed}.jsonl"
        reps, values, raw = measure_layers(run_once, args.seconds, tracing, trace_path)
        wanted = {m["name"] for m in declared["per_layer"]}
    else:
        reps, values, raw = measure_end_to_end(run_once, args.workload, args.seconds)
        wanted = {m["name"] for m in declared["end_to_end"]}
    if set(values) != wanted:
        raise RuntimeError(f"metrics {sorted(set(values) ^ wanted)} disagree with BENCHMARK.json")

    golden = None
    if workloads.golden_applies(args.workload, seed):
        golden = workloads.load_golden(args.workload)
        for rep in reps:
            workloads.check_golden(rep, golden)
    problems = [p for rep in reps for p in rep.problems]
    if len({rep.digest() for rep in reps if rep.outputs}) > 1:
        problems.append("repetitions, traced or not, produced different outputs")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed) for r in reps)
    csv_text = reps[0].outputs.get("csv")
    info = {
        "workload": args.workload,
        "seed": seed,
        "golden_checked": golden is not None,
        "env": environment(sortlab),
        **raw,
        "failed_share": failed / attempted,
        "output_sha256": reps[0].digest(),
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest() if csv_text else None,
    }
    print(json.dumps({"perfbench": info}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
