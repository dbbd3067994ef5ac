"""Instrumented sorting laboratory: a bidirectional conditional insertion
sort, classical baselines, closed-form cost models, seeded dataset
generators and a benchmark CLI."""

from .stats import SortStats
from .bcis import PRESCAN_SPAN, bcis_sort
from .baselines import insertion_sort, quicksort_mo3
from .datagen import DatasetSpec, DatasetSpecError, derive_seed, generate
from .bench import (
    ALGORITHMS,
    CSV_HEADER,
    SummaryRow,
    TrialRecord,
    VerificationError,
    fit_scaling_exponent,
    ratio_table,
    read_csv,
    run_suite,
    run_trial,
    write_csv,
)
from . import models

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CSV_HEADER",
    "DatasetSpec",
    "DatasetSpecError",
    "PRESCAN_SPAN",
    "SortStats",
    "SummaryRow",
    "TrialRecord",
    "VerificationError",
    "bcis_sort",
    "derive_seed",
    "fit_scaling_exponent",
    "generate",
    "insertion_sort",
    "models",
    "quicksort_mo3",
    "ratio_table",
    "read_csv",
    "run_suite",
    "run_trial",
    "write_csv",
]
