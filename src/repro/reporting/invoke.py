"""Rendering of step-4 invocation results (fidelity matrices)."""

from __future__ import annotations

import json

from repro.reporting.tables import render_table


def render_invoke_matrix(result, only_failing=False):
    """The per-(server, client, payload class) fidelity table."""
    if not result.cells:
        matched = result.services_matched
        return (
            "invocation matrix: empty "
            f"({matched} services matched; nothing to invoke)"
        )
    rows = result.rows()
    if only_failing:
        # Keep rows with anything beyond lossless/coerced round trips.
        rows = [row for row in rows if any(row[6:])]
    return render_table(
        (
            "Server", "Client", "Class",
            "Payloads", "Lossless", "Coerce", "Corrupt", "Fault",
            "Reject", "Quar",
        ),
        rows,
        title="Invocation sweep: round-trip fidelity per payload class",
    )


def render_fidelity_summary(result):
    """Per-client fidelity totals across the matrix, worst first."""
    rows = []
    for client_id in result.client_ids:
        totals = result.totals(client_id)
        executed = totals["payloads"] - totals["quarantined"]
        rate = totals["lossless"] / executed if executed else 1.0
        rows.append(
            (
                client_id,
                totals["payloads"],
                totals["lossless"],
                totals["coerced"],
                totals["corrupted"],
                totals["fault"],
                totals["client_reject"],
                totals["quarantined"],
                f"{rate:.3f}",
            )
        )
    # Most corrupted round trips first, then most faults.
    rows.sort(key=lambda row: (-row[4], -row[5], -row[1], row[0]))
    return render_table(
        (
            "Client", "Payloads", "Lossless", "Coerce", "Corrupt",
            "Fault", "Reject", "Quar", "LosslessRate",
        ),
        rows,
        title="Round-trip fidelity totals per client",
    )


def render_gate_summary(result):
    """How many (service, client) cells even reached the data plane."""
    if not result.gates:
        return "gate summary: no cells reached (empty sweep)"
    rows = []
    for server_id in result.server_ids:
        for client_id in result.client_ids:
            gate = result.gates.get(f"{server_id}|{client_id}")
            if gate is None:
                continue
            rows.append(
                (
                    server_id,
                    client_id,
                    gate["services"],
                    gate["invoked"],
                    gate["gate_failed"],
                )
            )
    return render_table(
        ("Server", "Client", "Services", "Invoked", "GateFailed"),
        rows,
        title="Steps-2-3 gate: cells that reached invocation",
    )


def invoke_to_json(result, indent=None):
    """Canonical serialization: key-sorted, digest-stable."""
    from repro.invoke.campaign import invoke_result_to_obj

    return json.dumps(
        invoke_result_to_obj(result), indent=indent, sort_keys=True
    )
