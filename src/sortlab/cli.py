"""Command-line benchmark harness.

Subcommands::

    sortlab bench   --algo bcis --dist uniform --n 1000,10000 --out runs.csv
    sortlab summary --in runs.csv --ratio bcis:is --metric comparisons --out ratios.csv
    sortlab fit     --in runs.csv --algo bcis --dist uniform --metric comparisons
    sortlab verify

Exit codes: 0 success, 1 usage error (any ``ValueError``, such as a bad or
repeated grid cell), 2 verification/acceptance failure, 3 I/O error or
malformed input CSV.  Only :func:`main` maps exceptions to exit codes.
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
    ratio_table,
    read_csv,
    run_suite,
    trials_by_size,
    write_csv,
)
from .datagen import KINDS, DatasetSpec, sweep_sizes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

#: Deterministic inputs need a single trial; sampled ones default to 20.
DETERMINISTIC_DISTS = ("sorted", "reverse", "equal")


class _IOFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValueError(message)


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
    bench.set_defaults(handler=_cmd_bench)

    summary = sub.add_parser("summary", help="ratio-of-means table from a trial CSV")
    summary.add_argument("--in", dest="infile", required=True)
    summary.add_argument("--ratio", required=True, help="NUMERATOR:DENOMINATOR algos")
    summary.add_argument("--metric", required=True, choices=METRICS)
    summary.add_argument("--out", help="summary CSV destination (default stdout)")
    summary.set_defaults(handler=_cmd_summary)

    fit = sub.add_parser("fit", help="log-log scaling exponent from a trial CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    fit.add_argument("--dist", required=True, choices=KINDS)
    fit.add_argument("--metric", required=True, choices=METRICS)
    fit.set_defaults(handler=_cmd_fit)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument(
        "--skip-timing",
        action="store_true",
        help="skip the informational wall-time tables",
    )
    verify.set_defaults(handler=_cmd_verify)
    return parser


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    trials = args.trials
    if trials is None:
        trials = 1 if args.dist in DETERMINISTIC_DISTS else 20
    sizes = sweep_sizes(args.n)
    grid = [
        (algo, DatasetSpec(args.dist, n, k_param=args.k_param), trials)
        for algo in algos
        for n in sizes
    ]
    records = run_suite(grid, mode=args.mode, base_seed=args.seed)
    _write_file(args.out, records)
    return EXIT_OK


def _write_file(path: str, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as out:
            write_csv(rows, out)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}")


def _read_file(path: str):
    try:
        with open(path, "r", encoding="utf-8", newline="") as source:
            return read_csv(source)
    except (OSError, ValueError) as exc:
        raise _IOFailure(f"cannot read {path}: {exc}")


def _cmd_summary(args) -> int:
    if ":" not in args.ratio:
        raise ValueError("--ratio must look like NUMERATOR:DENOMINATOR, e.g. bcis:is")
    num, den = args.ratio.split(":", 1)
    if num not in ALGORITHMS or den not in ALGORITHMS:
        raise ValueError(f"ratio algos must be among {tuple(ALGORITHMS)}")
    rows = ratio_table(_read_file(args.infile), num, den, args.metric)
    if args.out:
        _write_file(args.out, rows)
    else:
        write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_fit(args) -> int:
    records = (rec for rec in _read_file(args.infile) if rec.dist == args.dist)
    groups = trials_by_size(records, (args.algo,), args.metric)
    points = [(n, statistics.fmean(sides[args.algo].values()))
              for (_, n, _), sides in sorted(groups.items())]
    slope = fit_scaling_exponent(points)
    print(f"{slope:.6f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = acceptance.run_acceptance(skip_timing=args.skip_timing)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
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
