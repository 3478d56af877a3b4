"""Rendering of corruption-fuzz results (crash-triage matrices)."""

from __future__ import annotations

import json

from repro.reporting.tables import render_table


def render_fuzz_matrix(result, only_failing=False):
    """The per-(server, client, kind, intensity) triage table."""
    rows = result.rows()
    if only_failing:
        # Keep rows with anything beyond clean survive/reject verdicts.
        rows = [row for row in rows if any(row[7:])]
    return render_table(
        (
            "Server", "Client", "Mutation", "Int",
            "Mutants", "Surv", "Rej", "Parse", "Resrc", "Tmout", "Intrn",
            "Quar",
        ),
        rows,
        title="Fuzz sweep: crash triage per mutation kind",
    )


def render_triage_summary(result):
    """Per-client totals across the matrix, worst offenders first."""
    rows = []
    for client_id in result.client_ids:
        totals = result.totals(client_id)
        classified = totals["mutants"] - totals["tool_internal"]
        rate = classified / totals["mutants"] if totals["mutants"] else 1.0
        rows.append(
            (
                client_id,
                totals["mutants"],
                totals["survived"],
                totals["rejected"],
                totals["parser_crash"],
                totals["resource_blowup"],
                totals["timeout"],
                totals["tool_internal"],
                totals["quarantined"],
                f"{rate:.3f}",
            )
        )
    # Most tool-internal (unclassified) mutants first.
    rows.sort(key=lambda row: (-row[7], -row[1], row[0]))
    return render_table(
        (
            "Client", "Mutants", "Surv", "Rej", "Parse", "Resrc",
            "Tmout", "Intrn", "Quar", "Classified",
        ),
        rows,
        title="Crash-triage totals per client (classified must be 1.000)",
    )


def render_quarantine(result):
    """The poison list: (server, service, client) triples and why."""
    if not result.quarantine:
        return "quarantine registry: empty (no poisoned cells)"
    rows = [
        (server, service, client, bucket, detail[:60])
        for server, service, client, bucket, detail in result.quarantine
    ]
    return render_table(
        ("Server", "Service", "Client", "Bucket", "Detail"),
        rows,
        title=f"Quarantined triples ({len(rows)})",
    )


def fuzz_to_json(result, indent=None):
    """Canonical serialization: key-sorted, digest-stable."""
    from repro.faults.campaign import fuzz_result_to_obj

    return json.dumps(fuzz_result_to_obj(result), indent=indent, sort_keys=True)
