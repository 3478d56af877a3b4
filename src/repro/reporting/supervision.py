"""Rendering of pool supervision outcomes.

A parallel sweep that silently dropped work would be worse than a slow
serial one; these renderers make the supervisor's containment ledger —
worker deaths, watchdog kills, reassignments, poisoned units — part of
the run's visible output, so "the campaign completed" always comes with
"and here is everything that did not".
"""

from __future__ import annotations

import json

from repro.reporting.tables import render_table


def supervision_rows(stats):
    """(metric, value) rows for one :class:`~repro.runtime.pool.PoolStats`."""
    return [
        ("workers", stats.workers),
        ("units total", stats.units_total),
        ("units completed", stats.units_completed),
        ("units restored from checkpoint", stats.units_restored),
        ("units poisoned", stats.units_poisoned),
        ("worker deaths contained", stats.worker_deaths),
        ("watchdog kills", stats.watchdog_kills),
        ("heartbeat kills", stats.heartbeat_kills),
        ("reassignments", stats.reassignments),
        ("wall seconds", stats.wall_seconds),
    ]


def worker_utilization_rows(timeline):
    """Per-worker busy/idle/killed rows, by worker, from utilization
    records (a pool's ``worker_timeline`` or a trace's ``workers``)."""
    return [
        (
            row["worker"],
            f"{row['busy_pct']:.1f}%",
            f"{row['idle_pct']:.1f}%",
            f"{row['killed_pct']:.1f}%",
            row["units"],
            row["outcome"],
        )
        for row in sorted(timeline, key=lambda row: row["worker"])
    ]


def render_pool_summary(stats):
    """ASCII summary of one supervised parallel execution."""
    out = render_table(
        ("Metric", "Value"),
        supervision_rows(stats),
        title="Parallel execution supervision",
    )
    if stats.worker_timeline:
        out += "\n\n" + render_table(
            ("Worker", "Busy", "Idle", "Killed", "Units", "Outcome"),
            worker_utilization_rows(stats.worker_timeline),
            title="Worker utilization",
        )
    if stats.failures:
        rows = [
            (
                failure.unit_key,
                failure.bucket,
                failure.attempt,
                failure.detail[:60],
            )
            for failure in stats.failures
        ]
        out += "\n\n" + render_table(
            ("Unit", "Bucket", "Attempt", "Detail"),
            rows,
            title="Contained unit failures",
        )
    return out


def supervision_to_json(stats):
    """JSON document for dashboards and CI artifacts."""
    return json.dumps(stats.to_obj(), indent=2, sort_keys=True)
