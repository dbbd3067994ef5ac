"""A/B benchmark of this checkout's sort kernels against a parent commit.

Usage, from the root of a checkout::

    python3 tools/ab_bench.py --parent 839f218 --out BENCH_33.json

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
- ``step_events``: the ``line`` events in the sort's module of one sort
  (this checkout's ``tests/test_step_budget.py`` measure, run against
  each side's ``src/``) on each input of that test's ``BUDGETS``, by its
  ids, on each side;
- ``kernel_ab``: each input's sort (``bcis_sort``, ``insertion_sort``,
  ``quicksort_mo3``), or its ``generate``, of both sides loaded into one
  process and timed in alternating pairs, with their counters, or the
  generated lists, checked equal; per input the median seconds of each
  side, the median and quartiles of the per-pair ratios (change over
  parent) and the pairs the change won.

A full run takes about an hour on a 2-vCPU VM.
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

#: The workload whose ``wall_s`` the change claims to lower, or, for a
#: change that claims no gain, the one it touches most.
CLAIMED = "baselines-grid"

#: Alternating perfbench pairs per workload and seed.
PAIRS = 10

#: The perfbench seed of every workload, and a second one for CLAIMED
#: that was not used while developing.
SEED, CLAIM_SEED = 0, 17

#: Alternating runs of gate criterion #7 per side.
GATE_RUNS = 2

#: (function, kind, n, k, seeds, pairs per seed): the inputs of the
#: kernel A/B; the function is a sort, or ``generate`` to time drawing the
#: input itself; k is the k_param of ``k_distinct`` and None for other
#: kinds.
KERNEL_INPUTS = [
    *[("bcis_sort", "uniform", 2**e, None, (0, 1, 2), 11) for e in range(10, 15)],
    ("bcis_sort", "uniform", 2**15, None, (0, 1, 2), 5),
    ("bcis_sort", "uniform", 2**16, None, (0, 1), 3),
    ("bcis_sort", "uniform", 2**17, None, (0, 1), 3),
    ("bcis_sort", "k_distinct", 10**5, 50, (0, 1), 7),
    ("bcis_sort", "k_distinct", 10**6, 50, (0,), 5),
    ("bcis_sort", "sorted", 10**4, None, (0,), 11),
    ("bcis_sort", "sorted", 10**5, None, (0,), 11),
    ("bcis_sort", "sorted", 10**6, None, (0,), 7),
    ("bcis_sort", "equal", 10**5, None, (0,), 11),
    ("bcis_sort", "equal", 10**6, None, (0,), 11),
    ("bcis_sort", "reverse", 10**3, None, (0,), 11),
    ("bcis_sort", "reverse", 10**4, None, (0,), 11),
    *[("insertion_sort", "uniform", 2**e, None, (0,), 21) for e in range(9, 12)],
    ("insertion_sort", "uniform", 10**4, None, (0,), 11),
    ("insertion_sort", "reverse", 10**4, None, (0,), 11),
    ("insertion_sort", "sorted", 10**5, None, (0,), 11),
    ("insertion_sort", "equal", 10**5, None, (0,), 11),
    *[("quicksort_mo3", "k_distinct", 10**5, k, (0, 1), 7) for k in (5, 50, 1000)],
    *[("quicksort_mo3", "k_distinct", 10**6, k, (0,), 5) for k in (5, 50, 1000)],
    ("quicksort_mo3", "equal", 10**5, None, (0,), 11),
    *[("quicksort_mo3", "uniform", 2**e, None, (0, 1), 7) for e in (14, 16)],
    ("quicksort_mo3", "uniform", 2**18, None, (0,), 5),
    ("generate", "uniform", 2**14, None, (0, 1), 11),
    ("generate", "uniform", 2**18, None, (0, 1), 7),
    *[("generate", "k_distinct", 10**5, k, (0, 1), 11) for k in (5, 50, 1000)],
]


def _load(tree: Path, name: str):
    """Import ``tree/src/sortlab`` as the package ``name``."""
    init = tree / "src" / "sortlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def _timed(func, arg):
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = func(arg)
        return time.perf_counter() - t0, out
    finally:
        gc.enable()


def _call(mod, func: str, kind: str, n: int, seed: int, k, data):
    """Time one sort of a copy of ``data``, or one ``generate``; return
    the seconds and what the two sides must agree on."""
    if func == "generate":
        return _timed(mod.generate, mod.DatasetSpec(kind, n, seed=seed, k_param=k))
    t, stats = _timed(getattr(mod, func), list(data))
    return t, astuple(stats)


def kernel_ab(parent: Path, change: Path) -> list:
    a, b = _load(parent, "sortlab_parent"), _load(change, "sortlab_change")
    rows = []
    for func, kind, n, k, seeds, pairs in KERNEL_INPUTS:
        for seed in seeds:
            data = b.generate(b.DatasetSpec(kind, n, seed=seed, k_param=k))
            ta, tb = [], []
            for p in range(pairs):
                sides = [(a, ta), (b, tb)] if p % 2 == 0 else [(b, tb), (a, ta)]
                outs = []
                for mod, times in sides:
                    t, out = _call(mod, func, kind, n, seed, k, data)
                    times.append(t)
                    outs.append(out)
                if outs[0] != outs[1]:
                    what = "outputs" if func == "generate" else f"counters {outs}"
                    raise SystemExit(f"{func} {what} differ on {kind} {n} k {k} seed {seed}")
            ratios = [y / x for x, y in zip(ta, tb)]
            rows.append({
                "sort": func, "kind": kind, "n": n, "k": k, "seed": seed, "pairs": pairs,
                "parent_s": round(statistics.median(ta), 5),
                "change_s": round(statistics.median(tb), 5),
                "median_ratio": round(statistics.median(ratios), 3),
                "ratio_quartiles": [round(q, 3) for q in
                                    statistics.quantiles(ratios, n=4, method="inclusive")],
                "change_faster": sum(r < 1 for r in ratios),
            })
            print(json.dumps(rows[-1]), flush=True)
    return rows


def step_events(tree: Path, tests: Path) -> dict:
    code = (
        "import json\n"
        "from sortlab import DatasetSpec, generate\n"
        "from test_step_budget import BUDGETS, _budget_id, line_events\n"
        "print(json.dumps({_budget_id(f, s): line_events(f,\n"
        "    generate(s) if isinstance(s, DatasetSpec) else list(s)) for f, s, _ in BUDGETS}))\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{tests}"}
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

        record["step_events"] = {name: step_events(tree, change / "tests")
                                 for name, tree in sides.items()}
        print(json.dumps(record["step_events"]), flush=True)
        record["kernel_ab"] = kernel_ab(parent, change)

    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
