"""Supervised pool: crash containment, watchdog, poisoning, resume.

All crash scenarios are injected through ``sharding.unit_fault_hook``,
which worker processes inherit through ``fork`` — the children really
die (``os._exit``) or really hang (``time.sleep``); nothing in the
production path is patched.
"""

import json
import multiprocessing
import os
import shutil
import time

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core import sharding
from repro.core.store import (
    CampaignCheckpoint,
    CheckpointMismatch,
    QuarantineRegistry,
    result_to_obj,
)
from repro.runtime.pool import (
    PoolConfig,
    PoolStats,
    execute_sharded,
)
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection hooks require the fork start method",
)

#: The unit the fault hooks single out.
TARGET_KEY = "run-jbossws-001of002"


def _tiny_config():
    return CampaignConfig(
        server_ids=("jbossws", "wcf"),
        client_ids=("suds", "metro", "gsoap"),
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
    )


def _job(chunks=2):
    return Campaign(_tiny_config()).shard_job(chunks_per_server=chunks)


def _digest(result):
    return json.dumps(result_to_obj(result), sort_keys=True)


def _serial_digest():
    return _digest(Campaign(_tiny_config()).run())


def _expected_minus(job, poisoned_key):
    campaign = job.build()
    payloads = {
        unit.key: campaign.run_shard_unit(unit)
        for unit in job.units()
        if unit.key != poisoned_key
    }
    return _digest(job.merge(payloads))


@pytest.fixture(autouse=True)
def _reset_fault_hook():
    yield
    sharding.unit_fault_hook = None


def _crash_target(unit):
    if unit.key == TARGET_KEY:
        os._exit(139)


def _raise_on_target(unit):
    if unit.key == TARGET_KEY:
        raise MemoryError("simulated allocation blowup")


def _hang_on_target(unit):
    if unit.key == TARGET_KEY:
        time.sleep(600)


class TestHappyPath:
    def test_pool_matches_serial(self):
        result, stats = execute_sharded(_job(), PoolConfig(workers=2))
        assert _digest(result) == _serial_digest()
        assert stats.units_completed == stats.units_total == 4
        assert stats.worker_deaths == 0
        assert stats.units_poisoned == 0
        assert stats.contained == 0

    def test_single_worker_pool_is_valid(self):
        result, _ = execute_sharded(_job(), PoolConfig(workers=1))
        assert _digest(result) == _serial_digest()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            execute_sharded(_job(), PoolConfig(workers=0))


class TestCrashContainment:
    def test_worker_death_poisons_unit_and_completes_sweep(self):
        sharding.unit_fault_hook = _crash_target
        result, stats = execute_sharded(
            _job(), PoolConfig(workers=2, max_attempts=2)
        )
        # The crashing unit burned both attempts (two dead workers),
        # was poisoned, and everything else still completed.
        assert stats.units_poisoned == 1
        assert stats.worker_deaths == 2
        assert stats.reassignments == 1
        assert stats.units_completed == stats.units_total - 1
        [failure] = stats.failures
        assert failure.unit_key == TARGET_KEY
        assert failure.bucket == "tool-internal"
        assert failure.attempt == 2
        assert "exit code 139" in failure.detail
        assert _digest(result) == _expected_minus(_job(), TARGET_KEY)

    def test_in_worker_exception_is_triaged_without_killing_worker(self):
        sharding.unit_fault_hook = _raise_on_target
        result, stats = execute_sharded(
            _job(), PoolConfig(workers=2, max_attempts=1)
        )
        assert stats.worker_deaths == 0
        assert stats.units_poisoned == 1
        [failure] = stats.failures
        assert failure.bucket == "resource-blowup"
        assert "MemoryError" in failure.detail
        assert _digest(result) == _expected_minus(_job(), TARGET_KEY)

    def test_watchdog_kills_hung_worker(self):
        sharding.unit_fault_hook = _hang_on_target
        started = time.monotonic()
        result, stats = execute_sharded(
            _job(),
            PoolConfig(workers=2, watchdog_seconds=1.0, max_attempts=1),
        )
        assert time.monotonic() - started < 60
        assert stats.watchdog_kills == 1
        assert stats.worker_deaths == 1
        assert stats.units_poisoned == 1
        [failure] = stats.failures
        assert failure.bucket == "timeout"
        assert "watchdog" in failure.detail
        assert _digest(result) == _expected_minus(_job(), TARGET_KEY)


class TestCheckpointResume:
    def test_full_resume_restores_every_unit(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck")
        first, _ = execute_sharded(_job(), checkpoint=checkpoint)
        second, stats = execute_sharded(_job(), checkpoint=checkpoint)
        assert stats.units_restored == stats.units_total
        assert stats.units_completed == stats.units_total
        assert _digest(second) == _digest(first) == _serial_digest()

    def test_partial_resume_after_supervisor_kill(self, tmp_path):
        # Emulate `kill -9` of the supervisor mid-sweep: only some unit
        # payloads (plus the manifest) survived in the checkpoint.
        done = CampaignCheckpoint(tmp_path / "done")
        execute_sharded(_job(), checkpoint=done)
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        survivors = ("manifest", "run-jbossws-000of002")
        for key in survivors:
            shutil.copy(
                done.directory / f"{key}.json",
                partial_dir / f"{key}.json",
            )
        result, stats = execute_sharded(
            _job(), checkpoint=CampaignCheckpoint(partial_dir)
        )
        assert stats.units_restored == 1
        assert _digest(result) == _serial_digest()

    def test_fingerprint_guards_shard_shape(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck")
        execute_sharded(_job(chunks=2), checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatch):
            execute_sharded(_job(chunks=3), checkpoint=checkpoint)

    def test_poison_persists_across_resume(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck")
        sharding.unit_fault_hook = _crash_target
        first, _ = execute_sharded(
            _job(), PoolConfig(workers=2, max_attempts=1), checkpoint=checkpoint
        )
        # Re-run healthy: the poisoned unit must stay excluded rather
        # than silently reappear with a payload.
        sharding.unit_fault_hook = None
        second, stats = execute_sharded(_job(), checkpoint=checkpoint)
        assert stats.units_poisoned == 1
        assert stats.units_restored == stats.units_total - 1
        assert [f.unit_key for f in stats.failures] == [TARGET_KEY]
        assert _digest(second) == _digest(first)
        registry = QuarantineRegistry.load(checkpoint)
        assert registry.reason("jbossws", TARGET_KEY, "run") is not None


class TestStats:
    def test_stats_roundtrip_to_obj(self):
        _, stats = execute_sharded(_job(), PoolConfig(workers=2))
        obj = stats.to_obj()
        assert obj["units_total"] == 4
        assert obj["units_completed"] == 4
        assert obj["failures"] == []
        json.dumps(obj, sort_keys=True)
        assert isinstance(stats, PoolStats)
