"""Rendering of resilience-sweep results (survival/recovery matrices)."""

from __future__ import annotations

import json

from repro.reporting.tables import render_table


def render_resilience_matrix(result, only_failing=False):
    """The per-(server, client, fault kind, rate) survival table."""
    rows = result.rows()
    if only_failing:
        # Keep rows where something went wrong or recovery kicked in.
        rows = [row for row in rows if row[-1] != "1.00" or row[8] > 0]
    return render_table(
        (
            "Server", "Client", "Fault", "Rate",
            "Tests", "Faults", "Retries", "Done", "Recov", "CommErr", "Surv",
        ),
        rows,
        title="Resilience sweep: survival and recovery per fault kind",
    )


def render_client_robustness(result):
    """Per-client survival, averaged over servers, worst fault config."""
    rows = []
    for client_id in result.client_ids:
        worst = 1.0
        for kind in result.fault_kinds:
            for rate in result.rates:
                survival = result.client_survival(kind, rate)[client_id]
                worst = min(worst, survival)
        totals = result.totals(client_id)
        tests, completed = totals["tests"], totals["completed"]
        overall = completed / tests if tests else 0.0
        rows.append(
            (
                client_id,
                tests,
                completed,
                totals["recovered"],
                f"{overall:.2f}",
                f"{worst:.2f}",
            )
        )
    rows.sort(key=lambda row: (-float(row[4]), row[0]))
    return render_table(
        ("Client", "Tests", "Done", "Recov", "Survival", "Worst"),
        rows,
        title="Client robustness ranking (most survivable first)",
    )


def resilience_to_json(result, indent=None):
    """Serialize a resilience result for downstream analysis."""
    from repro.faults.campaign import resilience_result_to_obj

    return json.dumps(resilience_result_to_obj(result), indent=indent)
