"""What the instruments cost, against the budgets the design sets them.

Tracing and the perf ledger may each tax the sweep they observe by less
than 5%, a regress diff must cost under a tenth of the sweep it gates,
and a loopback wire exchange must stay interactive.  The CPU-time
bounds switch the collector off while they measure, so a collection
pause cannot land on one side of a ratio.
"""

import gc
import statistics
import time

import pytest

from repro.core import Campaign, CampaignConfig, canon
from repro.invoke import InvocationCampaign, InvocationCampaignConfig
from repro.obs import (
    NullTracer,
    PerfLedger,
    Tracer,
    activate,
    diff_profiles,
    perf_profile,
    trace_id_for,
)
from repro.obs.perf import trace_to_profile_inputs
from repro.regress import BaselineStore, build_configs, build_report, run_sweeps
from repro.reporting import result_to_json
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

SEED = 20140622

#: DESIGN §9's budget for tracing, which the perf ledger shares.
MAX_OVERHEAD = 0.05


def _quick_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
    )


def _cpu_timed(fn):
    """``(CPU seconds, result)`` of ``fn()`` with the collector off."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        out = fn()
        return time.process_time() - started, out
    finally:
        gc.enable()


def _wall_timed(fn):
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


@pytest.fixture(scope="module")
def traced_quick_run():
    """``(CPU seconds, result, tracer)`` of one traced quick campaign."""
    config = _quick_config()
    tracer = Tracer(trace_id_for("run", config.fingerprint()))

    def traced():
        with activate(tracer):
            return Campaign(config).run()

    seconds, result = _cpu_timed(traced)
    tracer.emit_root()
    return seconds, result, tracer


def _site_seconds(tracer, n=200_000):
    """CPU seconds per ``with tracer.span(...)`` open/close cycle."""

    def loop():
        span = tracer.span
        for _ in range(n):
            with span("test", client="c"):
                pass

    return _cpu_timed(loop)[0] / n


def test_tracing_hot_path_stays_under_budget(traced_quick_run):
    """Net per-span cost x span count / untraced campaign CPU time.

    Comparing two short campaign runs directly is hopeless on a shared
    host, so the tax is assembled from the per-site cost of a span,
    net of the no-op cost an untraced sweep pays at the same sites.
    """
    _, traced_result, tracer = traced_quick_run
    null_site = _site_seconds(NullTracer())
    traced_site = _site_seconds(Tracer(tracer.trace_id))
    untraced_seconds, untraced_result = _cpu_timed(
        lambda: Campaign(_quick_config()).run()
    )
    spans = sum(1 for event in tracer.events if event.get("type") == "span")
    assert result_to_json(traced_result) == result_to_json(untraced_result)
    assert spans > 0
    overhead = max(traced_site - null_site, 0.0) * spans / untraced_seconds
    assert overhead < MAX_OVERHEAD, f"tracing hot path {overhead:.2%}"


def test_ledger_record_and_diff_stay_under_budget(traced_quick_run, tmp_path):
    sweep_seconds, _, tracer = traced_quick_run
    trace = trace_to_profile_inputs(
        tracer.trace_id, "run", 1, tracer.events, tracer.metrics
    )
    profile_seconds, profile = _cpu_timed(lambda: perf_profile(trace))
    ledger = PerfLedger(str(tmp_path))
    record_seconds, _ = _cpu_timed(
        lambda: ledger.record(profile, recorded_at="test", seed=0)
    )
    diff_seconds, diff = _cpu_timed(lambda: diff_profiles(profile, profile))
    assert not diff.significant, "a profile must never regress against itself"
    overhead = (profile_seconds + record_seconds + diff_seconds) / sweep_seconds
    assert overhead < MAX_OVERHEAD, f"perf ledger {overhead:.2%}"


def test_regress_diff_costs_under_a_tenth_of_the_sweep(tmp_path):
    campaigns = ("run", "invoke")
    configs = build_configs(
        campaigns, _quick_config(), seed=SEED, sample=2, payloads_per_class=1,
    )
    sweeps = [_wall_timed(lambda: run_sweeps(campaigns, configs))
              for _ in range(3)]
    snapshots = sweeps[-1][1]
    assert sum(len(snapshot["cells"]) for snapshot in snapshots.values()) > 0
    store = BaselineStore(str(tmp_path / "baseline"))
    store.accept(snapshots)
    diffs = [
        _wall_timed(lambda: build_report(store, snapshots, configs, drill=False))
        for _ in range(20)
    ]
    assert all(report.clean for _, report in diffs)
    sweep_mean = statistics.mean(seconds for seconds, _ in sweeps)
    diff_mean = statistics.mean(seconds for seconds, _ in diffs)
    assert diff_mean < sweep_mean / 10


def test_wire_exchange_stays_interactive():
    def sweep(transport):
        config = InvocationCampaignConfig(
            base=_quick_config(transport=transport), seed=SEED,
            sample_per_server=4,
        )
        return _wall_timed(InvocationCampaign(config).run)

    wire_seconds, wire_result = sweep("wire")
    memory_seconds, memory_result = sweep("memory")
    # Real sockets change timings, never bytes.
    assert canon.canonical_matrix("invoke", wire_result) == (
        canon.canonical_matrix("invoke", memory_result)
    )
    requests = wire_result.totals()["payloads"]
    assert requests > 0
    overhead_us = (wire_seconds - memory_seconds) / requests * 1e6
    assert overhead_us < 10_000
