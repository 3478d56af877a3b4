"""Drill-down of every campaign kind, joined against its full trace.

``drill_cell`` narrows a sweep to one cell from the kind's axes and
re-drives it under the full sweep's trace ID.  For each kind, a quick
sweep is traced in full, one cell of its canonical matrix is drilled,
and the drill-down must carry evidence whose span IDs all occur in the
full trace: the narrowed re-drive reproduces the cell, not a look-alike.
"""

from dataclasses import replace

import pytest

from repro.core import CampaignConfig, canon
from repro.core.sharding import campaign_class
from repro.obs import Tracer, activate, trace_id_for
from repro.regress import build_configs, drill_cell
from repro.regress.diff import perturb_matrix
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

#: The cell each kind drills at these settings: the first failing cell
#: of its canonical matrix, or for invoke (no failing cell) the one the
#: gate's ``--perturb`` self-test drills.
DRILLED = {
    "run": "metro|metro",
    "resilience": "metro|metro|connection-refused|0.15",
    "fuzz": "metro|metro|truncation|0.3",
    "invoke": "metro|gsoap|baseline",
}


def _full_sweep(kind):
    base = CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )
    config = build_configs(
        [kind], base, seed=7, sample=1, payloads_per_class=1
    )[kind]
    if kind == "run":
        config = replace(config, server_ids=("metro",))
    tracer = Tracer(trace_id_for(kind, config.fingerprint()))
    with activate(tracer):
        result = campaign_class(kind)(config).run()
    return config, result, tracer.events


def _drilled_cell(kind, result):
    cells = canon.canonical_matrix(kind, result)
    failing = [key for key, value in cells.items()
               if value["status"] == canon.STATUS_FAIL]
    if failing:
        return failing[0]
    perturbed, _ = perturb_matrix(kind, cells)
    return next(key for key in cells if perturbed[key] != cells[key])


@pytest.mark.parametrize("kind", sorted(DRILLED))
def test_the_drill_down_joins_the_full_trace(kind):
    config, result, events = _full_sweep(kind)
    cell = _drilled_cell(kind, result)
    assert cell == DRILLED[kind]
    drilldown = drill_cell(kind, config, cell, config.fingerprint())
    assert drilldown.spans or drilldown.exchanges or drilldown.notes
    span_ids = {event["id"] for event in events if event["type"] == "span"}
    assert {span["id"] for span in drilldown.spans} <= span_ids
    assert drilldown.server_span in span_ids
    if kind == "resilience":
        stats = result.cells[tuple(cell.split("|"))]
        assert drilldown.notes[0] == (
            f"tests={stats.tests} completed={stats.completed} "
            f"recovered={stats.recovered} retries={stats.retries} "
            f"comm_errors={stats.communication_errors}"
        )
