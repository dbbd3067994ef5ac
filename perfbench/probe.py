"""Set-up probe: import sortlab, build one workload's grid, and print the
CLOCK_MONOTONIC time in ns at which the first trial could start.

Usage: python3 perfbench/probe.py WORKLOAD
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports sortlab)

workloads.WORKLOADS[sys.argv[1]].grid()
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
