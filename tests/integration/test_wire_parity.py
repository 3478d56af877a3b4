"""Wire transport end-to-end: byte parity and classified wire chaos.

The keystone guarantee of the wire transport: a sweep over real
loopback sockets canonicalizes to a matrix *byte-identical* to the
in-memory sweep — same seed, same cells, same digests — with real wall
time confined to trace artifacts.  And a sweep of socket-level
pathologies completes with every outcome classified: the lifecycle's
step taxonomy is total over the wire fault taxonomy, so no cell can
leak an unclassified escape.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import CampaignConfig, canon
from repro.faults import (
    DEFAULT_WIRE_FAULT_KINDS,
    FaultKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
)
from repro.invoke import (
    InvocationCampaign,
    InvocationCampaignConfig,
    PayloadClass,
)
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

SEED = 7


def _base(transport):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS,
        transport=transport,
    )


def _no_wire_threads():
    return not [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("wire-")
    ]


def _resilience_config(transport, kinds=(FaultKind.HTTP_503,)):
    return ResilienceCampaignConfig(
        base=_base(transport), seed=SEED, sample_per_server=1,
        fault_kinds=kinds, rates=(0.5,),
    )


def _invoke_config(transport):
    return InvocationCampaignConfig(
        base=_base(transport), seed=SEED, sample_per_server=1,
        payload_classes=(PayloadClass.BASELINE, PayloadClass.NUMERIC_BOUNDARY),
        payloads_per_class=1,
    )


class TestByteParity:
    def test_resilience_matrix_identical_across_transports(self):
        digests = {}
        for transport in ("memory", "wire"):
            config = _resilience_config(transport)
            result = ResilienceCampaign(config).run()
            digests[transport] = canon.matrix_digest(
                canon.snapshot("resilience", result, config.fingerprint())
            )
        assert digests["memory"] == digests["wire"]
        assert _no_wire_threads()

    def test_invoke_matrix_identical_across_transports(self):
        digests = {}
        for transport in ("memory", "wire"):
            config = _invoke_config(transport)
            result = InvocationCampaign(config).run()
            digests[transport] = canon.matrix_digest(
                canon.snapshot("invoke", result, config.fingerprint())
            )
        assert digests["memory"] == digests["wire"]
        assert _no_wire_threads()

    def test_fingerprint_is_transport_invariant(self):
        # A wire sweep must gate against a memory-accepted baseline:
        # the transport is deliberately absent from every fingerprint.
        assert (_resilience_config("memory").fingerprint()
                == _resilience_config("wire").fingerprint())
        assert (_invoke_config("memory").fingerprint()
                == _invoke_config("wire").fingerprint())


class TestWireFaultSweep:
    @pytest.fixture(scope="class")
    def result(self):
        config = ResilienceCampaignConfig(
            base=_base("wire"), seed=SEED, sample_per_server=1,
            fault_kinds=DEFAULT_WIRE_FAULT_KINDS, rates=(1.0,),
        )
        return ResilienceCampaign(config).run()

    def test_every_outcome_classified(self, result):
        # The lifecycle's closed step taxonomy is total: every test
        # lands in exactly one bucket, none escape unclassified.
        for key, stats in result.cells.items():
            classified = (
                stats.generation_errors + stats.compilation_errors
                + stats.communication_errors + stats.execution_errors
                + stats.completed
            )
            assert classified == stats.tests, key

    def test_faults_were_actually_injected(self, result):
        totals = result.totals()
        assert totals["faults_injected"] > 0
        assert totals["communication_errors"] > 0

    def test_all_wire_kinds_swept(self, result):
        swept = {key[2] for key in result.cells}
        assert swept == {kind.value for kind in DEFAULT_WIRE_FAULT_KINDS}

    def test_no_orphaned_threads_after_sweep(self, result):
        assert _no_wire_threads()


class TestOneListenerPerUnit:
    def test_a_units_cells_share_one_listener(self, monkeypatch):
        from repro.runtime import WireServer

        started = []
        original = WireServer.start

        def counting(self):
            if not self.running:
                started.append(self)
            return original(self)

        monkeypatch.setattr(WireServer, "start", counting)
        config = _invoke_config("wire")
        result = InvocationCampaign(config).run()
        invoked = sum(gate["invoked"] for gate in result.gates.values())
        units = len(config.base.server_ids)
        assert invoked > 2 * units
        assert len(started) == units
        assert _no_wire_threads()

    def test_raising_unit_leaves_no_wire_thread(self, monkeypatch):
        import repro.invoke.campaign as invoke_module

        def broken(*args, **kwargs):
            raise RuntimeError("validator bug")

        monkeypatch.setattr(invoke_module, "validate_response", broken)
        campaign = InvocationCampaign(_invoke_config("wire"))
        unit = campaign.shard_job().units()[0]
        with pytest.raises(RuntimeError, match="validator bug"):
            campaign.run_shard_unit(unit)
        assert _no_wire_threads()

    def test_raising_resilience_unit_leaves_no_wire_thread(
        self, monkeypatch
    ):
        import repro.faults.campaign as faults_module

        calls = []
        original = faults_module.run_full_lifecycle

        def failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("lifecycle bug")
            return original(*args, **kwargs)

        monkeypatch.setattr(faults_module, "run_full_lifecycle", failing_second)
        campaign = ResilienceCampaign(_resilience_config("wire"))
        unit = campaign.shard_job().units()[0]
        with pytest.raises(RuntimeError, match="lifecycle bug"):
            campaign.run_shard_unit(unit)
        assert _no_wire_threads()


class TestTracedWireSweep:
    def test_traced_payload_is_the_untraced_one_and_splits_wire_ms(self):
        from repro.invoke import invoke_result_to_obj
        from repro.obs import Tracer, activate, trace_id_for

        config = _invoke_config("wire")
        untraced = invoke_result_to_obj(InvocationCampaign(config).run())
        tracer = Tracer(trace_id_for("invoke", config.fingerprint()))
        with activate(tracer):
            traced = invoke_result_to_obj(InvocationCampaign(config).run())
        assert traced == untraced
        counts = {
            event["name"]: event["count"]
            for event in tracer.metrics.to_events()
            if event["kind"] == "histogram"
            and event["name"].startswith("wire_")
        }
        posts = counts["wire_ms"]
        assert posts > 0
        assert counts["wire_write_ms"] == posts
        assert counts["wire_first_byte_ms"] == posts
        assert counts["wire_read_ms"] == posts
        # One connection per unit that posted.
        assert 0 < counts["wire_connect_ms"] <= len(config.base.server_ids)


class TestDeterminism:
    def test_wire_sweep_is_seed_deterministic(self):
        config = _resilience_config("wire")
        first = ResilienceCampaign(config).run()
        second = ResilienceCampaign(config).run()
        assert (canon.canonical_matrix("resilience", first)
                == canon.canonical_matrix("resilience", second))


pytestmark_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="kill/resume suite relies on the fork start method",
)


def _run_wire_until_killed(checkpoint_dir):
    # Own session so the SIGKILL takes out the whole process group.
    os.setsid()
    from repro.core.store import CampaignCheckpoint

    config = _resilience_config("wire")
    ResilienceCampaign(config).run(
        checkpoint=CampaignCheckpoint(checkpoint_dir)
    )


@pytestmark_fork
class TestKillResume:
    def test_sigkill_mid_wire_sweep_resumes_without_orphans(self, tmp_path):
        """A hard kill mid-wire-request must leave nothing behind on
        resume: listener sockets die with the killed process, and the
        resumed sweep binds fresh ephemeral ports, completes, matches
        the uninterrupted matrix and leaves no wire threads."""
        from repro.core.store import CampaignCheckpoint

        checkpoint_dir = tmp_path / "ck"
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_run_wire_until_killed, args=(str(checkpoint_dir),)
        )
        child.start()
        # Kill as soon as the first slice is checkpointed — the child
        # is then mid-sweep, with a live wire listener per transport.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if checkpoint_dir.is_dir() and any(
                name.endswith(".json") and name != "manifest.json"
                for name in os.listdir(checkpoint_dir)
            ):
                break
            time.sleep(0.05)
        else:
            child.terminate()
            pytest.fail("no checkpoint slice appeared before the deadline")
        os.killpg(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        config = _resilience_config("wire")
        resumed = ResilienceCampaign(config).run(
            checkpoint=CampaignCheckpoint(str(checkpoint_dir))
        )
        uninterrupted = ResilienceCampaign(config).run()
        assert (canon.canonical_matrix("resilience", resumed)
                == canon.canonical_matrix("resilience", uninterrupted))
        assert _no_wire_threads()
