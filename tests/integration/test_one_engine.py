"""One sweep engine: a serial run is the in-process path of the pool's.

Serial, pooled and resumed sweeps run the same code, so they agree by
construction: a checkpoint written under one worker count resumes under
any other, a serial sweep streams the same progress heartbeats, and a
``--fail-fast`` abort is reproduced by a re-run on its own checkpoint.
The five-step ``lifecycle`` sweep is one of the engine's kinds too.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core import Campaign, CampaignConfig, sharding
from repro.core.extended import LifecycleCampaign
from repro.core.store import CampaignCheckpoint, result_to_obj
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
)
from repro.frameworks.client import SudsClient
from repro.reporting import fuzz_to_json, resilience_to_json
from repro.runtime.pool import PoolConfig, execute_sharded
from repro.runtime.progress import read_progress, validate_progress_lines
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the kill/resume legs rely on the fork start method",
)


def _base(**kwargs):
    defaults = dict(
        server_ids=("jbossws", "wcf"),
        client_ids=("suds", "metro", "gsoap"),
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
    )
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def _run_campaign():
    return Campaign(_base())


def _fuzz_campaign():
    return FuzzCampaign(FuzzCampaignConfig(
        base=_base(),
        seed=7,
        mutation_kinds=(MutationKind.TRUNCATION,),
        intensities=(0.6,),
        sample_per_server=2,
    ))


def _lifecycle_campaign():
    return LifecycleCampaign(_base(), sample_per_server=2)


def _lifecycle_bytes(result):
    return json.dumps({
        "services": result.services_per_server,
        "cells": [
            [server, client, dataclasses.asdict(cell)]
            for (server, client), cell in result.cells.items()
        ],
    })


#: kind -> (campaign factory, result bytes)
KINDS = {
    "run": (_run_campaign, lambda result: json.dumps(result_to_obj(result))),
    "fuzz": (_fuzz_campaign, fuzz_to_json),
    "lifecycle": (_lifecycle_campaign, _lifecycle_bytes),
}


@pytest.fixture(autouse=True)
def _reset_fault_hook():
    yield
    sharding.unit_fault_hook = None


def _unit_files(directory):
    return sorted(
        name[: -len(".json")]
        for name in os.listdir(directory)
        if name.endswith(".json") and name != "manifest.json"
    )


class TestResumeUnderAnyWorkerCount:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_serial_interrupt_resumes_pooled(self, kind, tmp_path):
        make, to_bytes = KINDS[kind]
        expected = to_bytes(make().run())
        first = make().shard_job().units()[0]

        def interrupt_after_first(unit):
            if unit.key != first.key:
                raise KeyboardInterrupt("simulated interrupt")

        checkpoint = CampaignCheckpoint(str(tmp_path / "ck"))
        sharding.unit_fault_hook = interrupt_after_first
        with pytest.raises(KeyboardInterrupt):
            make().run(checkpoint=checkpoint)
        sharding.unit_fault_hook = None
        assert _unit_files(checkpoint.directory) == [first.key]

        result, stats = execute_sharded(
            make().shard_job(), PoolConfig(workers=2), checkpoint=checkpoint
        )
        assert stats.units_restored == 1
        assert stats.units_completed == stats.units_total
        assert to_bytes(result) == expected

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_pooled_kill_resumes_serial(self, kind, tmp_path):
        make, to_bytes = KINDS[kind]
        expected = to_bytes(make().run())
        first = make().shard_job().units()[0]
        directory = tmp_path / "ck"
        child = multiprocessing.get_context("fork").Process(
            target=_pooled_until_killed,
            args=(kind, str(directory), first.key),
        )
        child.start()
        deadline = time.monotonic() + 120
        while not (directory / f"{first.key}.json").exists():
            if time.monotonic() > deadline:
                child.terminate()
                pytest.fail("the first unit never reached the checkpoint")
            time.sleep(0.05)
        os.killpg(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert _unit_files(directory) == [first.key]

        campaign = make()
        result, stats = execute_sharded(
            campaign.shard_job(), PoolConfig(workers=1),
            checkpoint=CampaignCheckpoint(str(directory)), campaign=campaign,
        )
        assert stats.units_restored == 1
        assert to_bytes(result) == expected


def _pooled_until_killed(kind, directory, first_key):
    # New session, so the kill takes out the supervisor and its workers.
    os.setsid()

    def stall_after_first(unit):
        if unit.key != first_key:
            time.sleep(600)

    sharding.unit_fault_hook = stall_after_first
    make, _ = KINDS[kind]
    execute_sharded(
        make().shard_job(), PoolConfig(workers=2),
        checkpoint=CampaignCheckpoint(directory),
    )


class TestPooledMatchesSerial:
    def test_wire_fault_resilience_sweep(self):
        # A wire-only fault kind must survive the merge on both paths.
        config = ResilienceCampaignConfig(
            base=_base(transport="wire"),
            seed=7,
            fault_kinds=(FaultKind.RESET,),
            rates=(0.5,),
            sample_per_server=1,
        )
        serial = ResilienceCampaign(config).run()
        pooled, _ = execute_sharded(
            ResilienceCampaign(config).shard_job(), PoolConfig(workers=2)
        )
        assert resilience_to_json(pooled) == resilience_to_json(serial)

    def test_lifecycle_sweep(self):
        job = _lifecycle_campaign().shard_job()
        assert [unit.key for unit in job.units()] == [
            "lifecycle-jbossws-000of001", "lifecycle-wcf-000of001",
        ]
        serial = _lifecycle_campaign().run()
        pooled, _ = execute_sharded(job, PoolConfig(workers=2))
        assert serial.tests_executed > 0
        assert _lifecycle_bytes(pooled) == _lifecycle_bytes(serial)


class TestFailFastResume:
    def test_rerun_on_the_checkpoint_reproduces_the_abort(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        # Gentle mutants parse cleanly, so the planted bug is reached.
        config = FuzzCampaignConfig(
            base=_base(server_ids=("metro", "jbossws", "wcf")),
            seed=7,
            mutation_kinds=(MutationKind.DEEP_NESTING, MutationKind.HUGE_TEXT),
            intensities=(0.0,),
            sample_per_server=2,
            fail_fast=True,
        )
        checkpoint = CampaignCheckpoint(str(tmp_path / "ck"))
        first = FuzzCampaign(config).run(checkpoint=checkpoint)
        assert first.aborted
        assert first.totals()["tool_internal"] == 1
        assert first.totals()["quarantined"] == 0

        rerun = FuzzCampaign(config).run(checkpoint=checkpoint)
        assert fuzz_to_json(rerun) == fuzz_to_json(first)
        # The aborted unit was restored, and the units after it never ran.
        assert _unit_files(checkpoint.directory) == ["fuzz-metro-000of001"]
        pooled, _ = execute_sharded(
            FuzzCampaign(config).shard_job(), PoolConfig(workers=2),
            checkpoint=checkpoint,
        )
        assert fuzz_to_json(pooled) == fuzz_to_json(first)


class TestSerialTelemetry:
    def test_progress_streams_at_the_default_worker_count(
        self, tmp_path, capsys
    ):
        path = tmp_path / "p.jsonl"
        assert main([
            "invoke", "--quick", "--sample", "1", "--seed", "7",
            "--progress", str(path),
        ]) == 0
        with open(path, encoding="utf-8") as handle:
            validate_progress_lines(handle.readlines())
        stream = read_progress(str(path))
        assert stream["meta"]["campaign"] == "invoke"
        assert stream["meta"]["workers"] == 1
        assert stream["final"]["outcome"] == "completed"
        assert stream["final"]["done"] == stream["final"]["total"]
        assert "pooled sweeps" not in capsys.readouterr().err


class TestInProcessPath:
    def test_writes_nothing_without_a_checkpoint(self, monkeypatch):
        import tempfile

        def no_spool(*args, **kwargs):
            raise AssertionError("an in-process sweep made a spool")

        monkeypatch.setattr(tempfile, "mkdtemp", no_spool)
        result = Campaign(_base(client_ids=("suds",))).run()
        assert result.totals()["tests"] > 0

    def test_serial_sweep_leaves_the_pool_unimported(self):
        script = (
            "import sys\n"
            "from repro.core import Campaign, CampaignConfig\n"
            "from repro.typesystem import QUICK_DOTNET_QUOTAS, "
            "QUICK_JAVA_QUOTAS\n"
            "import repro.cli\n"
            "Campaign(CampaignConfig(server_ids=('wcf',), "
            "client_ids=('suds',), java_quotas=QUICK_JAVA_QUOTAS, "
            "dotnet_quotas=QUICK_DOTNET_QUOTAS)).run()\n"
            "print(sorted(name for name in ('multiprocessing', "
            "'repro.runtime.pool') if name in sys.modules))\n"
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True,
        )
        assert out.stdout.strip() == "[]"
