"""The per-item draws that ``datagen.generate`` made for ``uniform`` and
``k_distinct`` before it drew their values in bulk.

Test-only reference: one ``randrange`` or ``choice`` call per item, on the
spec's seed.  ``generate`` must return exactly these lists.
"""

from __future__ import annotations

import random
from typing import List

from sortlab.datagen import VALUE_BOUND, DatasetSpec


def generate(spec: DatasetSpec) -> List[int]:
    """The ``uniform`` or ``k_distinct`` sequence of ``spec``."""
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        return [rng.randrange(VALUE_BOUND) for _ in range(spec.n)]
    if spec.kind == "k_distinct":
        pool = rng.sample(range(VALUE_BOUND), spec.k_param)
        return [rng.choice(pool) for _ in range(spec.n)]
    raise ValueError(f"no reference for kind {spec.kind!r}")
