"""Traces must be deterministic and must never touch campaign payloads.

The tracing contract has two halves.  Identity: span IDs, parent edges
and emission order are pure functions of the campaign's logical
coordinates, so serial and any ``--workers N`` execution produce the
same trace.  Isolation: timing lives only in trace artifacts — a traced
run's campaign payload is byte-identical to an untraced one.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.core import Campaign, CampaignConfig
from repro.core.store import result_to_obj
from repro.faults import (
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    fuzz_result_to_obj,
    resilience_result_to_obj,
)
from repro.obs import TraceCollector, Tracer, activate, load_trace, trace_id_for
from repro.runtime.pool import PoolConfig, execute_sharded
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="trace determinism suite relies on the fork start method",
)


def _quick_config():
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )


def _shape(events):
    """The identity of a trace: IDs, parent edges and order."""
    return [(event["id"], event["parent"], event["name"]) for event in events]


def _counters(metrics):
    """Integer counters only — float sums are not merge-order stable."""
    return dict(metrics.counters)


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def serial_traced(self):
        config = _quick_config()
        trace_id = trace_id_for("run", config.fingerprint())
        tracer = Tracer(trace_id)
        with activate(tracer):
            result = Campaign(config).run()
        tracer.emit_root()
        return trace_id, tracer, result

    def test_payload_identical_with_tracing_on_and_off(
        self, serial_traced, quick_campaign_result
    ):
        _, _, traced_result = serial_traced
        assert result_to_obj(traced_result) == result_to_obj(
            quick_campaign_result
        )

    def test_span_set_identical_for_workers_1_2_4(self, serial_traced):
        trace_id, tracer, _ = serial_traced
        serial_shape = _shape(tracer.events)
        job = Campaign(_quick_config()).shard_job()
        for workers in (1, 2, 4):
            collector = TraceCollector(trace_id)
            execute_sharded(
                job, PoolConfig(workers=workers), collector=collector
            )
            assert _shape(collector.events) == serial_shape, (
                f"trace diverged at --workers {workers}"
            )
            assert _counters(collector.metrics) == _counters(tracer.metrics)

    def test_worker_timeline_rides_on_the_collector(self, serial_traced):
        trace_id, _, _ = serial_traced
        collector = TraceCollector(trace_id)
        execute_sharded(
            Campaign(_quick_config()).shard_job(), PoolConfig(workers=2),
            collector=collector,
        )
        assert len(collector.worker_events) == 2
        for row in collector.worker_events:
            assert row["type"] == "worker"
            assert row["outcome"] == "retired"
            assert 0.0 <= row["busy_pct"] <= 100.0


class TestFaultCampaigns:
    def test_resilience_trace_identical_parallel_vs_serial(self):
        config = ResilienceCampaignConfig(
            base=_quick_config(), sample_per_server=2
        )
        trace_id = trace_id_for("resilience", config.fingerprint())
        tracer = Tracer(trace_id)
        with activate(tracer):
            serial_result = ResilienceCampaign(config).run()
        tracer.emit_root()

        collector = TraceCollector(trace_id)
        result, _ = execute_sharded(
            ResilienceCampaign(config).shard_job(), PoolConfig(workers=3),
            collector=collector,
        )
        assert _shape(collector.events) == _shape(tracer.events)
        assert resilience_result_to_obj(result) == resilience_result_to_obj(
            serial_result
        )

    def test_fuzz_trace_identical_parallel_vs_serial(self):
        config = FuzzCampaignConfig(
            base=_quick_config(),
            mutation_kinds=(
                MutationKind.TRUNCATION, MutationKind.TAG_IMBALANCE
            ),
            intensities=(0.8,),
            sample_per_server=2,
        )
        trace_id = trace_id_for("fuzz", config.fingerprint())
        tracer = Tracer(trace_id)
        with activate(tracer):
            serial_result = FuzzCampaign(config).run()
        tracer.emit_root()

        collector = TraceCollector(trace_id)
        result, _ = execute_sharded(
            FuzzCampaign(config).shard_job(), PoolConfig(workers=3),
            collector=collector,
        )
        assert _shape(collector.events) == _shape(tracer.events)
        assert fuzz_result_to_obj(result) == fuzz_result_to_obj(serial_result)


class TestCli:
    def test_trace_dir_flag_and_profile_command(self, tmp_path, capsys):
        serial_save = tmp_path / "serial.json"
        pool_save = tmp_path / "pool.json"
        untraced_save = tmp_path / "untraced.json"
        serial_dir = tmp_path / "serial-trace"
        pool_dir = tmp_path / "pool-trace"

        assert main(["run", "--quick", "--save", str(untraced_save)]) == 0
        assert main([
            "run", "--quick", "--save", str(serial_save),
            "--trace-dir", str(serial_dir),
        ]) == 0
        assert main([
            "run", "--quick", "--workers", "2", "--save", str(pool_save),
            "--trace-dir", str(pool_dir),
        ]) == 0
        capsys.readouterr()

        # tracing must not perturb the campaign payload, serial or pooled
        assert serial_save.read_bytes() == untraced_save.read_bytes()
        assert pool_save.read_bytes() == untraced_save.read_bytes()

        serial_trace = load_trace(serial_dir / "trace.jsonl")
        pool_trace = load_trace(pool_dir / "trace.jsonl")
        assert serial_trace["meta"]["trace_id"] == (
            pool_trace["meta"]["trace_id"]
        )
        assert _shape(serial_trace["spans"]) == _shape(pool_trace["spans"])
        assert serial_trace["workers"] == []
        assert [row["worker"] for row in pool_trace["workers"]] == [1, 2]

        assert main(["profile", str(pool_dir)]) == 0
        rendered = capsys.readouterr().out
        assert "Stage latency rollup" in rendered
        assert "slowest services" in rendered
        assert "Worker utilization" in rendered

    def test_profile_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        bad.write_text(json.dumps({"type": "bogus"}) + "\n")
        assert main(["profile", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err
