"""Pin the golden outputs of every workload at the default seed.

Usage: python3 perfbench/pin_golden.py

The goldens hold every trial's CSV row (so its five counters), the
summary CSVs and fitted slopes, and each gate criterion's verdict and
detail.  They were pinned from the seed implementation; a change that
claims to keep the counts must pass against them, not re-pin them.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports sortlab)

for name, workload in workloads.WORKLOADS.items():
    rep = workload.run(workloads.DEFAULT_SEED)
    if rep.failed or rep.problems:
        sys.exit(f"{name}: not pinned, the run failed: {rep.problems}")
    path = workloads.golden_path(name)
    path.write_text(json.dumps(rep.outputs, indent=1) + "\n", encoding="utf-8")
    print(f"{name}: {rep.attempted} operations pinned to {path.name}")
