"""A/B benchmark of this checkout's BCIS kernel against a parent commit.

Usage, from the root of a checkout::

    python3 tools/ab_bench.py --parent 84a9b76 --out BENCH_28.json

Both sides run from fresh copies in a temporary directory: the parent
from ``git archive``, the change from this working tree's ``src/``,
``tests/``, ``perfbench/``, ``pyproject.toml`` and ``BENCHMARK.json``.
The record holds:

- ``workloads``: ``perfbench/run.py`` on every workload of
  ``BENCHMARK.json`` for its ``run_seconds`` at ``SEED``, and on the
  claimed one also at ``CLAIM_SEED``, in ``PAIRS`` alternating pairs
  (the parent first in even pairs), with each metric's median, quartiles
  and the pairs won; a metric is ``unresolved`` when either side's
  quartile distance exceeds the metric's bound, as a share of its median;
- ``gate_7``: the call seconds of gate criterion #7 from pytest's
  ``--durations``, in alternating runs of each side;
- ``step_events``: the ``line`` events in ``bcis.py`` frames of one sort
  (``tests/test_step_budget.py``'s measure) on each side;
- ``kernel_ab``: ``bcis_sort`` of both sides loaded into one process and
  timed in alternating pairs on each input, with their counters checked
  equal; per input the median seconds of each side, the median of the
  per-pair ratios (change over parent) and the pairs the change won.

A full run takes about 70 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workload whose ``wall_s`` the change claims to lower.
CLAIMED = "gate-subset"

#: Alternating perfbench pairs per workload and seed.
PAIRS = 10

#: The perfbench seed of every workload, and a second one for CLAIMED
#: that was not used while developing.
SEED, CLAIM_SEED = 0, 17

#: Alternating runs of gate criterion #7 per side.
GATE_RUNS = 2

#: (kind, n, seeds, pairs per seed): the inputs of the kernel A/B.
KERNEL_INPUTS = [
    *[("uniform", 2**e, (0, 1, 2), 11) for e in range(10, 15)],
    ("uniform", 2**15, (0, 1, 2), 5),
    ("uniform", 2**16, (0, 1), 3),
    ("uniform", 2**17, (0, 1), 3),
    ("k_distinct", 10**5, (0, 1), 7),
    ("k_distinct", 10**6, (0,), 5),
    ("sorted", 10**4, (0,), 11),
    ("sorted", 10**5, (0,), 11),
    ("sorted", 10**6, (0,), 7),
    ("equal", 10**5, (0,), 11),
    ("equal", 10**6, (0,), 11),
    ("reverse", 10**3, (0,), 11),
    ("reverse", 10**4, (0,), 11),
]

#: The inputs of ``tests/test_step_budget.py``'s measure.
STEP_INPUTS = [
    ("equal", 10**5, 0),
    ("sorted", 10**5, 0),
    ("reverse", 10**4, 0),
    ("uniform", 2**12, 1),
    ("uniform", 2**14, 1),
    ("k_distinct", 10**4, 1),
]


def _spec(mod, kind, n, seed):
    k = {"k_param": 50} if kind == "k_distinct" else {}
    return mod.DatasetSpec(kind, n, seed=seed, **k)


def _load(tree: Path, name: str):
    """Import ``tree/src/sortlab`` as the package ``name``."""
    init = tree / "src" / "sortlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def _timed(sort, data):
    work = list(data)
    gc.disable()
    try:
        t0 = time.perf_counter()
        stats = sort(work)
        return time.perf_counter() - t0, stats
    finally:
        gc.enable()


def kernel_ab(parent: Path, change: Path) -> list:
    a, b = _load(parent, "sortlab_parent"), _load(change, "sortlab_change")
    rows = []
    for kind, n, seeds, pairs in KERNEL_INPUTS:
        for seed in seeds:
            data = b.generate(_spec(b, kind, n, seed))
            ta, tb = [], []
            for p in range(pairs):
                sides = [(a, ta), (b, tb)] if p % 2 == 0 else [(b, tb), (a, ta)]
                stats = []
                for mod, times in sides:
                    t, s = _timed(mod.bcis_sort, data)
                    times.append(t)
                    stats.append(astuple(s))
                if stats[0] != stats[1]:
                    raise SystemExit(f"counters differ on {kind} {n} seed {seed}: {stats}")
            ratios = [y / x for x, y in zip(ta, tb)]
            rows.append({
                "kind": kind, "n": n, "seed": seed, "pairs": pairs,
                "parent_s": round(statistics.median(ta), 5),
                "change_s": round(statistics.median(tb), 5),
                "median_ratio": round(statistics.median(ratios), 3),
                "change_faster": sum(r < 1 for r in ratios),
            })
            print(json.dumps(rows[-1]), flush=True)
    return rows


def step_events(tree: Path) -> dict:
    code = (
        "import json\n"
        "from sortlab import DatasetSpec, generate\n"
        "from test_step_budget import line_events\n"
        f"inputs = {STEP_INPUTS!r}\n"
        "out = {}\n"
        "for kind, n, seed in inputs:\n"
        "    k = {'k_param': 50} if kind == 'k_distinct' else {}\n"
        "    out[f'{kind}-{n}'] = line_events(generate(DatasetSpec(kind, n, seed=seed, **k)))\n"
        "print(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{tree / 'tests'}"}
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def gate_7(tree: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "criterion-07", "--durations=1"],
        cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return float(re.search(r"([\d.]+)s call .*criterion-07", out).group(1))


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "failed": result["failed"], "attempted": result["attempted"],
        **{k: v["value"] for k, v in result["metrics"].items()},
    }


def _side(xs: list) -> dict:
    out = {"median": round(statistics.median(xs), 4)}
    if len(xs) > 1:
        out["quartiles"] = [round(x, 4) for x in statistics.quantiles(xs, n=4, method="inclusive")]
    return out


def _summary(parent: list, change: list, bound: float) -> dict:
    out = {
        "parent": _side(parent),
        "change": _side(change),
        "change_lower_in_pairs": sum(y < x for x, y in zip(parent, change)),
        "pairs": len(parent),
    }
    spreads = [(q[2] - q[0]) / statistics.median(xs)
               for xs in (parent, change)
               for q in [statistics.quantiles(xs, n=4, method="inclusive")]]
    out["unresolved"] = max(spreads) > bound
    return out


def _copy_change(dest: Path) -> None:
    dest.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench-out", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / name, dest / name)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        _copy_change(change)
        sides = {"parent": parent, "change": change}

        record = {
            "command": " ".join(["python3", "tools/ab_bench.py", *sys.argv[1:]]),
            "parent": args.parent,
            "machine": f"Python {platform.python_version()}, {platform.system()}, "
                       f"{os.cpu_count()} CPUs",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over one side's runs",
        }
        # perfbench runs first: on Linux a child's peak RSS starts from its
        # parent's at the fork, and the kernel A/B below grows this process.
        runs = [(w["name"], SEED) for w in benchmark["workloads"]] + [(CLAIMED, CLAIM_SEED)]
        record["workloads"] = {}
        for workload, seed in runs:
            results = {"parent": [], "change": []}
            for p in range(PAIRS):
                for name in (("parent", "change") if p % 2 == 0 else ("change", "parent")):
                    results[name].append(perfbench(sides[name], workload, seed, seconds))
            entry = {"seconds": seconds,
                     "failed": {k: sum(r["failed"] for r in v) for k, v in results.items()},
                     "attempted": {k: sum(r["attempted"] for r in v) for k, v in results.items()}}
            for metric, bound in bounds.items():
                entry[metric] = _summary([r[metric] for r in results["parent"]],
                                         [r[metric] for r in results["change"]], bound)
            record["workloads"].setdefault(workload, {})[f"seed {seed}"] = entry
            print(workload, seed, json.dumps(entry), flush=True)

        runs = {"parent": [], "change": []}
        for r in range(GATE_RUNS):
            for name in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                runs[name].append(gate_7(sides[name]))
        record["gate_7"] = {"call_s": runs}
        print(json.dumps(record["gate_7"]), flush=True)

        record["step_events"] = {name: step_events(tree) for name, tree in sides.items()}
        print(json.dumps(record["step_events"]), flush=True)
        record["kernel_ab"] = kernel_ab(parent, change)

    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
