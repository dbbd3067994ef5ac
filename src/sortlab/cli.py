"""Command-line benchmark harness.

Subcommands::

    sortlab bench   --algo bcis --dist uniform --n 1000,10000 --out runs.csv
    sortlab summary --in runs.csv --ratio bcis:is --metric comparisons --out ratios.csv
    sortlab fit     --in runs.csv --algo bcis --dist uniform --metric comparisons
    sortlab verify

Exit codes: 0 success, 1 usage error, 2 verification/acceptance failure,
3 I/O error or malformed input CSV.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import List, Optional

from . import acceptance
from .bench import (
    ALGORITHMS,
    METRICS,
    MODES,
    VerificationError,
    fit_scaling_exponent,
    metric_value,
    ratio_table,
    read_csv,
    run_suite,
    write_csv,
)
from .datagen import KINDS, DatasetSpec, sweep_sizes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

#: Deterministic inputs need a single trial; sampled ones default to 20.
DETERMINISTIC_DISTS = ("sorted", "reverse", "equal")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sortlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run an (algo x dataset x trials) grid")
    bench.add_argument(
        "--algo",
        required=True,
        help="comma-separated subset of: " + ", ".join(ALGORITHMS),
    )
    bench.add_argument("--dist", required=True, choices=KINDS)
    bench.add_argument(
        "--n", required=True, help="comma list of sizes, or start:stop:factor"
    )
    bench.add_argument("--k-param", type=int, help="distinct values (k_distinct only)")
    bench.add_argument(
        "--trials",
        type=int,
        help="trials per grid cell (default: 1 for deterministic dists, else 20)",
    )
    bench.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    bench.add_argument("--mode", choices=MODES, default="count")
    bench.add_argument("--out", required=True, help="trial CSV destination")

    summary = sub.add_parser("summary", help="ratio-of-means table from a trial CSV")
    summary.add_argument("--in", dest="infile", required=True)
    summary.add_argument("--ratio", required=True, help="NUMERATOR:DENOMINATOR algos")
    summary.add_argument("--metric", required=True, choices=METRICS)
    summary.add_argument("--out", help="summary CSV destination (default stdout)")

    fit = sub.add_parser("fit", help="log-log scaling exponent from a trial CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    fit.add_argument("--dist", required=True, choices=KINDS)
    fit.add_argument("--metric", required=True, choices=METRICS)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument(
        "--skip-timing",
        action="store_true",
        help="skip the informational wall-time tables",
    )
    return parser


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    trials = args.trials
    if trials is None:
        trials = 1 if args.dist in DETERMINISTIC_DISTS else 20
    try:
        sizes = sweep_sizes(args.n)
        grid = [
            (algo, DatasetSpec(args.dist, n, k_param=args.k_param), trials)
            for algo in algos
            for n in sizes
        ]
        records = run_suite(grid, mode=args.mode, base_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    _write_file(args.out, records)
    return EXIT_OK


def _write_file(path: str, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as out:
            write_csv(rows, out)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}")


class _IOFailure(Exception):
    pass


def _read_file(path: str):
    try:
        with open(path, "r", encoding="utf-8", newline="") as source:
            return read_csv(source)
    except (OSError, ValueError) as exc:
        raise _IOFailure(f"cannot read {path}: {exc}")


def _cmd_summary(args) -> int:
    if ":" not in args.ratio:
        raise UsageError("--ratio must look like NUMERATOR:DENOMINATOR, e.g. bcis:is")
    num, den = args.ratio.split(":", 1)
    if num not in ALGORITHMS or den not in ALGORITHMS:
        raise UsageError(f"ratio algos must be among {tuple(ALGORITHMS)}")
    records = _read_file(args.infile)
    try:
        rows = ratio_table(records, num, den, args.metric)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.out:
        _write_file(args.out, rows)
    else:
        write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_fit(args) -> int:
    records = _read_file(args.infile)
    by_n = {}
    try:
        for rec in records:
            if rec.algo == args.algo and rec.dist == args.dist:
                by_n.setdefault(rec.n, []).append(metric_value(rec, args.metric))
        points = [(n, statistics.fmean(vals)) for n, vals in sorted(by_n.items())]
        slope = fit_scaling_exponent(points)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"{slope:.6f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = acceptance.run_acceptance(skip_timing=args.skip_timing)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "bench": _cmd_bench,
            "summary": _cmd_summary,
            "fit": _cmd_fit,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IOFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError as exc:
        # The reader closed stdout.  Point it at the null device so the
        # interpreter's final flush of the buffered rest does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"io error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
