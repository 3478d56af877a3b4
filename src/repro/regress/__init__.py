"""Regression gating: baseline store, total drift diffing, drill-down.

The subsystem behind ``wsinterop regress``: accept a sweep's canonical
matrices as the baseline, re-sweep on every change, and report *only*
what drifted — each delta classified into a closed taxonomy and
explained by its recorded exchanges and trace span IDs.
"""

from repro.regress.baseline import REACCEPT_HINT, BaselineError, BaselineStore
from repro.regress.diff import (
    DriftClass,
    DriftEntry,
    UnclassifiedDriftError,
    classify_cell,
    diff_matrices,
    perturb_matrix,
    totals_delta,
)
from repro.regress.drilldown import CellDrilldown, drill_cell, drill_entries
from repro.regress.runner import (
    DEFAULT_SEED,
    EXIT_CLEAN,
    EXIT_REGRESSIONS,
    EXIT_UNCLASSIFIED,
    RegressReport,
    accept,
    build_configs,
    build_report,
    run_sweep,
    run_sweeps,
)

__all__ = [
    "REACCEPT_HINT",
    "BaselineError",
    "BaselineStore",
    "CellDrilldown",
    "DriftClass",
    "DriftEntry",
    "UnclassifiedDriftError",
    "classify_cell",
    "diff_matrices",
    "perturb_matrix",
    "totals_delta",
    "drill_cell",
    "drill_entries",
    "DEFAULT_SEED",
    "EXIT_CLEAN",
    "EXIT_REGRESSIONS",
    "EXIT_UNCLASSIFIED",
    "RegressReport",
    "accept",
    "build_configs",
    "build_report",
    "run_sweep",
    "run_sweeps",
]
