"""The extension sweeps' claims over sampled slices of the paper corpus.

Each sweep runs once at paper scale with the seed and sample it has
always been judged on, and checks what the extension exists to make
observable: the five-step lifecycle fails where §IV.A predicts, fuzzing
is totally classified, round-trip triage is total, and retry budgets
buy survival.
"""

from repro.core import CampaignConfig
from repro.core.extended import LifecycleCampaign
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    policy_for,
)
from repro.invoke import InvocationCampaign, InvocationCampaignConfig

SEED = 20140622


def test_lifecycle_fails_only_where_section_4a_predicts():
    result = LifecycleCampaign(CampaignConfig(), sample_per_server=120).run()
    # The echo server is faithful: communication is the only possible
    # post-compilation failure, and execution never mismatches.
    assert result.totals()["execution_errors"] == 0
    assert result.completion_ratio() > 0.85
    # Communication fails only on the JBossWS zero-operation WSDLs, and
    # only for tools that silently produced a method-less client: the
    # dynamic platforms and the silent generators.
    for (server_id, client_id), cell in result.cells.items():
        if cell.communication_errors:
            assert server_id == "jbossws", (server_id, client_id)
            assert client_id in ("zend", "suds", "axis1", "cxf", "jbossws"), (
                server_id, client_id,
            )


def test_fuzz_triage_is_total_and_budgets_hold():
    result = FuzzCampaign(FuzzCampaignConfig(
        base=CampaignConfig(),
        seed=SEED,
        intensities=(0.3, 0.8),
        mutants_per_config=1,
        sample_per_server=6,
    )).run()
    totals = result.totals()
    assert totals["mutants"] > 0
    # Nothing escapes unclassified, nothing gets quarantined.
    assert totals["tool_internal"] == 0
    assert totals["quarantined"] == 0
    assert not result.aborted
    assert totals["parser_crash"] > 0

    # The resource operators trip parser budgets, not the process.
    def blowups(kind):
        return sum(
            cell.resource_blowup
            for key, cell in result.cells.items() if key[2] == kind.value
        )

    assert blowups(MutationKind.DEEP_NESTING) > 0
    assert blowups(MutationKind.HUGE_TEXT) > 0


def test_invoke_triage_is_total_over_most_payload_classes():
    result = InvocationCampaign(InvocationCampaignConfig(
        base=CampaignConfig(), seed=SEED, sample_per_server=6,
    )).run()
    totals = result.totals()
    assert totals["payloads"] >= 300
    assert totals["unclassified"] == 0
    # nil fires only where the sampled slice has nillable fields, so
    # demand broad but not universal class coverage.
    sent = [
        sum(cell.payloads for key, cell in result.cells.items()
            if key[2] == payload_class)
        for payload_class in result.payload_classes
    ]
    assert sum(1 for count in sent if count > 0) >= 4


def test_resilience_retry_budgets_buy_survival():
    result = ResilienceCampaign(ResilienceCampaignConfig(
        base=CampaignConfig(), seed=SEED, rates=(0.25,), sample_per_server=12,
    )).run()
    totals = result.totals()
    assert totals["tests"] > 0
    # Chaos hurts: not every test completes under a 25% fault rate.
    assert totals["completed"] < totals["tests"]
    # Recovery exists and is exclusive to clients with a retry budget.
    assert totals["recovered"] > 0
    for (server, client, kind, rate), cell in result.cells.items():
        if cell.recovered:
            assert policy_for(client).max_retries > 0, (server, client, kind)

    # Over transient server trouble (500/503) the retrying stacks
    # outrank the die-on-first-failure stacks.
    transient = {FaultKind.HTTP_500.value, FaultKind.HTTP_503.value}

    def survival(client_id):
        tests = completed = 0
        for (_, client, kind, _), cell in result.cells.items():
            if client == client_id and kind in transient:
                tests += cell.tests
                completed += cell.completed
        return completed / tests if tests else 0.0

    for retrying in ("metro", "cxf"):
        for naive in ("suds", "zend", "gsoap"):
            assert survival(retrying) > survival(naive), (retrying, naive)
