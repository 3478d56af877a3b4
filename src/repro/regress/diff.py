"""Total drift diffing between an accepted baseline and a fresh sweep.

Every delta between two canonical matrices (:mod:`repro.core.canon`)
lands in exactly one class of a closed taxonomy:

=================  =========================================================
NEW_FAILURE        a passing cell now fails
FIXED              a failing cell now passes
STATUS_CHANGED     any other verdict transition (quarantine appeared or
                   healed, pass/fail ↔ quarantined)
FIDELITY_CHANGED   same verdict, different counters (a warning count moved,
                   a lossless round trip became a coercion, ...)
NEW_CELL           the cell exists only in the fresh sweep
REMOVED_CELL       the cell exists only in the baseline
=================  =========================================================

The taxonomy is *total by construction*: the classifier either returns
one of the six classes or raises :class:`UnclassifiedDriftError`, which
the CLI turns into exit 3 — an unclassifiable delta is a harness bug,
never a silent skip.  Diff output is canonically ordered (by cell key),
so the same pair of matrices always yields byte-identical reports.
The headline counters move under :func:`totals_delta`, the drift
report's summary header.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.canon import CELL_STATUSES, FAILURE_METRIC, STATUS_FAIL, STATUS_PASS


class UnclassifiedDriftError(Exception):
    """A delta escaped the drift taxonomy — a harness bug (exit 3)."""

    def __init__(self, campaign, cell, message):
        super().__init__(
            f"unclassifiable drift in {campaign!r} cell {cell!r}: {message}"
        )
        self.campaign = campaign
        self.cell = cell


class DriftClass(Enum):
    """The closed drift taxonomy."""

    NEW_FAILURE = "new-failure"
    FIXED = "fixed"
    STATUS_CHANGED = "status-changed"
    FIDELITY_CHANGED = "fidelity-changed"
    NEW_CELL = "new-cell"
    REMOVED_CELL = "removed-cell"


@dataclass(frozen=True)
class DriftEntry:
    """One classified changed cell."""

    campaign: str
    cell: str
    drift: DriftClass
    #: Canonical cell dicts; ``None`` on the NEW_CELL / REMOVED_CELL side.
    before: object
    after: object
    #: Sorted ``(metric, before, after)`` triples for moved counters.
    changed_metrics: tuple = ()

    def to_obj(self):
        return {
            "campaign": self.campaign,
            "cell": self.cell,
            "drift": self.drift.value,
            "before": self.before,
            "after": self.after,
            "changed_metrics": [list(item) for item in self.changed_metrics],
        }

    def __str__(self):
        moved = ", ".join(
            f"{metric}: {before} -> {after}"
            for metric, before, after in self.changed_metrics
        )
        return f"[{self.drift.value}] {self.campaign} {self.cell}" + (
            f" ({moved})" if moved else ""
        )


def _require_cell(campaign, key, cell):
    """Validate one canonical cell; unknown shapes are unclassifiable."""
    if not isinstance(cell, dict) or set(cell) != {"status", "metrics"}:
        raise UnclassifiedDriftError(
            campaign, key, f"cell is not in canonical form: {cell!r}"
        )
    if cell["status"] not in CELL_STATUSES:
        raise UnclassifiedDriftError(
            campaign, key, f"unknown cell status {cell['status']!r}"
        )
    metrics = cell["metrics"]
    if not isinstance(metrics, dict) or not all(
        isinstance(value, int) and not isinstance(value, bool)
        for value in metrics.values()
    ):
        raise UnclassifiedDriftError(
            campaign, key, f"non-integer metrics: {metrics!r}"
        )
    return cell


def _changed_metrics(campaign, key, before, after):
    if set(before["metrics"]) != set(after["metrics"]):
        raise UnclassifiedDriftError(
            campaign, key,
            "metric sets differ between baseline and sweep "
            f"({sorted(before['metrics'])} != {sorted(after['metrics'])}); "
            "matrices of different schema versions cannot be diffed",
        )
    return tuple(
        (metric, before["metrics"][metric], after["metrics"][metric])
        for metric in sorted(before["metrics"])
        if before["metrics"][metric] != after["metrics"][metric]
    )


def classify_cell(campaign, key, before, after):
    """Classify one cell delta; ``None`` when the cell did not drift."""
    if before is None and after is None:
        raise UnclassifiedDriftError(campaign, key, "cell exists on no side")
    if before is None:
        _require_cell(campaign, key, after)
        return DriftEntry(campaign, key, DriftClass.NEW_CELL, None, after)
    if after is None:
        _require_cell(campaign, key, before)
        return DriftEntry(campaign, key, DriftClass.REMOVED_CELL, before, None)
    _require_cell(campaign, key, before)
    _require_cell(campaign, key, after)
    if before == after:
        return None
    changed = _changed_metrics(campaign, key, before, after)
    old, new = before["status"], after["status"]
    if old == new:
        if not changed:
            # Equal metrics, equal status, unequal cells — impossible in
            # canonical form; refuse rather than report a phantom drift.
            raise UnclassifiedDriftError(
                campaign, key, "cells differ but no metric moved"
            )
        drift = DriftClass.FIDELITY_CHANGED
    elif old == STATUS_PASS and new == STATUS_FAIL:
        drift = DriftClass.NEW_FAILURE
    elif old == STATUS_FAIL and new == STATUS_PASS:
        drift = DriftClass.FIXED
    else:
        drift = DriftClass.STATUS_CHANGED
    return DriftEntry(campaign, key, drift, before, after, changed)


def diff_matrices(campaign, baseline_cells, current_cells):
    """All classified drift entries, in canonical (cell key) order."""
    entries = []
    for key in sorted(set(baseline_cells) | set(current_cells)):
        entry = classify_cell(
            campaign, key, baseline_cells.get(key), current_cells.get(key)
        )
        if entry is not None:
            entries.append(entry)
    return entries


def totals_delta(campaign, baseline_totals, current_totals):
    """Headline counter movements: ``{metric: (before, after)}``.

    The summary header of the drift report — the counter-delta view
    inherited from the retired ``core/diffing`` module.  A key-set
    mismatch between two same-fingerprint sweeps is a schema skew the
    taxonomy cannot express, so it raises instead of intersecting.
    """
    if set(baseline_totals) != set(current_totals):
        raise UnclassifiedDriftError(
            campaign, "<totals>",
            f"headline counter sets differ ({sorted(baseline_totals)} != "
            f"{sorted(current_totals)})",
        )
    return {
        key: (baseline_totals[key], current_totals[key])
        for key in sorted(baseline_totals)
        if baseline_totals[key] != current_totals[key]
    }


def perturb_matrix(campaign, cells):
    """Deterministically perturb one cell — the gate's self-test.

    Bumps the campaign's primary failure counter on the first passing
    cell (in canonical key order), so the diff against an accepted
    baseline must report exactly one NEW_FAILURE.  Falls back to the
    first cell (a FIDELITY_CHANGED / STATUS_CHANGED drift) when no cell
    passes.  Returns ``(perturbed_cells, description)``; the input map
    is not modified.
    """
    if not cells:
        raise ValueError(f"cannot perturb an empty {campaign!r} matrix")
    metric = FAILURE_METRIC[campaign]
    target = next(
        (key for key in sorted(cells) if cells[key]["status"] == STATUS_PASS),
        min(cells),
    )
    perturbed = {
        key: {"status": cell["status"], "metrics": dict(cell["metrics"])}
        for key, cell in cells.items()
    }
    cell = perturbed[target]
    cell["metrics"][metric] = cell["metrics"].get(metric, 0) + 1
    if cell["status"] == STATUS_PASS:
        cell["status"] = STATUS_FAIL
    return perturbed, f"{target} {metric} += 1"

