"""Canonical cell matrices: one comparable shape for all four sweeps.

The run, resilience, fuzz and invocation campaigns each have their own
cell coordinates and counters.  Regression gating needs to compare any
of them against an accepted baseline *cell-by-cell*, so this module
canonicalizes every result into the same shape::

    {"server|client|...": {"status": "pass" | "fail" | "quarantined",
                           "metrics": {name: int, ...}}}

The canonical form is pure data: string keys in the sweep's own cell
coordinates, integer counters, and a three-valued verdict each cell
derives from its counters (:meth:`repro.core.cells.Counters.status`).
Quarantined cells keep an explicit status rather than vanishing — a
poisoned cell that later heals must show up as drift.

Nothing timing-related enters the canonical form, so two byte-identical
sweeps canonicalize to byte-identical matrices for any worker count.
The transport carrying step-4/5 exchanges (in-memory or wire) is
likewise invisible here *and* in every campaign fingerprint: the two
transports are byte-identical by contract, so a wire sweep gates
against a memory-accepted baseline and any divergence between them
surfaces as reportable drift, never as a fingerprint mismatch.
"""

from __future__ import annotations

import hashlib
import json

#: Campaign kinds in canonical report order; mirrors
#: :mod:`repro.core.sharding`'s kind constants.
CAMPAIGN_KINDS = ("run", "resilience", "fuzz", "invoke")

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_QUARANTINED = "quarantined"

#: Every status a canonical cell may carry; anything else is a harness
#: bug the drift engine refuses to classify.
CELL_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_QUARANTINED)


def canonical_json(obj):
    """The one serialization used for digests: key-sorted, compact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def matrix_digest(obj):
    """sha256 over the canonical serialization of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _cell(status, metrics):
    return {"status": status, "metrics": {k: int(v) for k, v in metrics.items()}}


#: The counter a seeded self-test perturbation bumps, per campaign kind.
FAILURE_METRIC = {
    "run": "gen_error_tests",
    "resilience": "communication_errors",
    "fuzz": "parser_crash",
    "invoke": "corrupted",
}


def require_kind(kind):
    if kind not in CAMPAIGN_KINDS:
        raise ValueError(
            f"unknown campaign kind {kind!r}; expected one of {CAMPAIGN_KINDS}"
        )
    return kind


def canonical_matrix(kind, result):
    """The canonical cell map of ``result`` for campaign ``kind``.

    Each cell (a :class:`~repro.core.cells.Counters`) gives its own
    status, from its kind's ``FAIL_FIELDS``, and its counters.
    """
    require_kind(kind)
    return {
        "|".join(key): _cell(cell.status(), cell.to_obj())
        for key, cell in result.cells.items()
    }


def canonical_totals(kind, result):
    """The result's headline counters, integers only."""
    require_kind(kind)
    return {key: int(value) for key, value in result.totals().items()}


def snapshot(kind, result, fingerprint):
    """Everything the baseline store persists for one campaign."""
    return {
        "kind": require_kind(kind),
        "fingerprint": fingerprint,
        "totals": canonical_totals(kind, result),
        "cells": canonical_matrix(kind, result),
    }
