"""Spans around the calls into sortlab's modules, and the per-layer
metrics computed from them.

The tracer replaces module-level names that sortlab looks up at call
time (``bench.run_trial``, ``bench.generate``, the ``bench.ALGORITHMS``
entries, ...) with timing wrappers, and puts the originals back on exit.
Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from sortlab import acceptance, bench

from workloads import GATE_CHECKS

#: Span name of each sort in ``bench.ALGORITHMS``, and the prefix of its
#: per-layer metrics.
SORTS = {
    "bcis": ("bcis.sort", "bcis"),
    "is": ("baselines.is", "baselines.is"),
    "qs": ("baselines.qs", "baselines.qs"),
}
SORT_COUNTERS = ("comparisons", "assignments", "swaps", "sort_trips")

#: Leaf spans of the CSV and summary layer.
BENCH_LEAVES = ("write_csv", "read_csv", "ratio_table", "fit_scaling_exponent")


@dataclass
class Span:
    #: Position in the tracer's list of spans, which ``parent`` refers to.
    index: int
    name: str
    parent: Optional[int]
    #: Identifier of the operation (trial or criterion) the span belongs to.
    op: Optional[int]
    start_ns: int = 0
    end_ns: int = 0
    #: Work counts recorded at the boundary (items, counters, cpu_ns).
    counts: Dict[str, int] = field(default_factory=dict)


def _cpu_ns() -> int:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((children.ru_utime + children.ru_stime) * 1e9)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._ops = 0

    def _wrap(self, name: str, fn, kind: str = "", starts_op: bool = False):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            if starts_op:
                self._ops += 1
                op = self._ops
            else:
                op = spans[parent].op if parent is not None else None
            span = Span(len(spans), name, parent, op)
            spans.append(span)
            open_.append(span.index)
            stats = kwargs.get("stats") if kind == "sort" else None
            before = [getattr(stats, c) for c in SORT_COUNTERS] if stats else None
            out = args[-1] if kind == "write" else None
            mark = out.tell() if out is not None else 0
            cpu = _cpu_ns() if kind == "cpu" else 0
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_.pop()
            if kind == "sort":
                for i, c in enumerate(SORT_COUNTERS):
                    span.counts[c] = getattr(result, c) - (before[i] if before else 0)
            elif kind == "items":
                span.counts["items"] = len(result)
            elif kind == "trial":
                span.counts["items"] = result.n
            elif kind == "write":
                span.counts["bytes"] = out.tell() - mark
            elif kind == "cpu":
                span.counts["cpu_ns"] = _cpu_ns() - cpu
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap sortlab's module-level names for the duration of the block."""
        targets = [
            (bench, "run_suite", "bench.run_suite", "cpu", False),
            (bench, "run_trial", "bench.run_trial", "trial", True),
            (bench, "generate", "datagen.generate", "items", False),
            (bench, "write_csv", "bench.write_csv", "write", False),
            (bench, "read_csv", "bench.read_csv", "", False),
            (bench, "ratio_table", "bench.ratio_table", "", False),
            (bench, "fit_scaling_exponent", "bench.fit_scaling_exponent", "", False),
            # acceptance imported these names itself.
            (acceptance, "run_suite", "bench.run_suite", "cpu", False),
            (acceptance, "generate", "datagen.generate", "items", False),
            (acceptance, "write_csv", "bench.write_csv", "write", False),
            (acceptance, "fit_scaling_exponent", "bench.fit_scaling_exponent", "", False),
        ]
        targets += [
            (acceptance, check, f"acceptance.{check}", "", True) for check in GATE_CHECKS
        ]

        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in targets]
        saved_sorts = dict(bench.ALGORITHMS)
        try:
            for mod, attr, name, kind, starts_op in targets:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), kind, starts_op))
            for algo, (name, _) in SORTS.items():
                bench.ALGORITHMS[algo] = self._wrap(name, saved_sorts[algo], "sort")
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            bench.ALGORITHMS.update(saved_sorts)

    def write(self, path) -> None:
        """Write every span recorded, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, from its spans (a slice
    of the tracer's list) and its wall time.

    A span's self time is its duration minus its children's; spans of one
    thread nest, so the self times of all spans plus the time outside any
    span (``trace.unattributed_s``) add up to the repetition's wall time.
    """
    total: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, Dict[str, int]] = {}
    child_ns: Dict[int, int] = {}
    top_ns = 0
    for span in spans:
        d = span.end_ns - span.start_ns
        if span.parent is None:
            top_ns += d
        else:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + d
    for span in spans:
        d = span.end_ns - span.start_ns
        total[span.name] = total.get(span.name, 0) + d
        self_ns[span.name] = self_ns.get(span.name, 0) + d - child_ns.get(span.index, 0)
        calls[span.name] = calls.get(span.name, 0) + 1
        acc = counts.setdefault(span.name, {})
        for k, v in span.counts.items():
            acc[k] = acc.get(k, 0) + v

    def s(ns: int) -> float:
        return ns / 1e9

    def per(ns: int, n: int) -> float:
        return ns / n if n else 0.0

    m: Dict[str, float] = {}
    for name, prefix in SORTS.values():
        c = counts.get(name, {})
        m[f"{name}.s"] = s(self_ns.get(name, 0))
        m[f"{name}.calls"] = calls.get(name, 0)
        ops = c.get("comparisons", 0) + c.get("assignments", 0)
        m[f"{prefix}.ns_per_op"] = per(self_ns.get(name, 0), ops)
        for counter in SORT_COUNTERS:
            m[f"{prefix}.{counter}"] = c.get(counter, 0)

    gen = "datagen.generate"
    m[f"{gen}.s"] = s(self_ns.get(gen, 0))
    m[f"{gen}.calls"] = calls.get(gen, 0)
    m[f"{gen}.ns_per_item"] = per(self_ns.get(gen, 0), counts.get(gen, {}).get("items", 0))

    trial = "bench.run_trial"
    m[f"{trial}.self_s"] = s(self_ns.get(trial, 0))
    m[f"{trial}.calls"] = calls.get(trial, 0)
    m["bench.verify_ns_per_item"] = per(
        self_ns.get(trial, 0), counts.get(trial, {}).get("items", 0)
    )

    suite = "bench.run_suite"
    m[f"{suite}.s"] = s(total.get(suite, 0))
    m[f"{suite}.self_s"] = s(self_ns.get(suite, 0))
    m[f"{suite}.cpu_s"] = s(counts.get(suite, {}).get("cpu_ns", 0))
    m[f"{suite}.calls"] = calls.get(suite, 0)

    for leaf in BENCH_LEAVES:
        m[f"bench.{leaf}.s"] = s(self_ns.get(f"bench.{leaf}", 0))
        m[f"bench.{leaf}.calls"] = calls.get(f"bench.{leaf}", 0)
    m["bench.csv_bytes"] = counts.get("bench.write_csv", {}).get("bytes", 0)

    for check in GATE_CHECKS:
        m[f"acceptance.{check}.s"] = s(total.get(f"acceptance.{check}", 0))
        m[f"acceptance.{check}.calls"] = calls.get(f"acceptance.{check}", 0)
    m["acceptance.self_s"] = s(
        sum(v for k, v in self_ns.items() if k.startswith("acceptance."))
    )

    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - s(top_ns)
    m["trace.spans"] = len(spans)
    return m


#: Metrics whose sum is the traced wall time.
SELF_TIME_METRICS = (
    "bcis.sort.s",
    "baselines.is.s",
    "baselines.qs.s",
    "datagen.generate.s",
    "bench.run_trial.self_s",
    "bench.run_suite.self_s",
    *(f"bench.{leaf}.s" for leaf in BENCH_LEAVES),
    "acceptance.self_s",
    "trace.unattributed_s",
)


def consistency_problems(values: Dict[str, float], rep) -> List[str]:
    """Checks that the trace accounts for the traced repetition: the self
    times add up to its wall time, and the counters seen at the sort
    boundary add up to those in its trial records."""
    problems = []
    parts = sum(values[name] for name in SELF_TIME_METRICS)
    if abs(parts - values["trace.wall_s"]) > 1e-6:
        problems.append(f"self times add up to {parts} s, not {values['trace.wall_s']} s")
    if rep.records:
        for algo, (name, _) in SORTS.items():
            spans = {c: sum(s.counts[c] for s in rep.spans if s.name == name) for c in SORT_COUNTERS}
            records = {c: sum(getattr(r, c) for r in rep.records if r.algo == algo) for c in SORT_COUNTERS}
            if spans != records:
                problems.append(f"{algo}: span counters {spans} != record counters {records}")
    return problems
