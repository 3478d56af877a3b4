"""Parallel execution must be indistinguishable from serial.

The supervised pool's whole contract is that ``--workers N`` is an
implementation detail: any worker count, any completion order, and any
supervisor crash/resume must produce byte-identical results.  These
tests exercise that contract end to end over the full quick campaign
(all five servers, all eleven clients), over the paper-scale campaign,
and through the CLI.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.core import Campaign, CampaignConfig
from repro.core.store import CampaignCheckpoint, result_to_obj
from repro.faults import (
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    fuzz_result_to_obj,
    resilience_result_to_obj,
)
from repro.runtime.pool import PoolConfig, execute_sharded
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel determinism suite relies on the fork start method",
)


def _quick_config():
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )


class TestRunCampaign:
    def test_digest_identical_for_workers_1_2_4(self, quick_campaign_result):
        serial = json.dumps(result_to_obj(quick_campaign_result), sort_keys=True)
        job = Campaign(_quick_config()).shard_job()
        for workers in (1, 2, 4):
            result, stats = execute_sharded(job, PoolConfig(workers=workers))
            parallel = json.dumps(result_to_obj(result), sort_keys=True)
            assert parallel == serial, f"diverged at --workers {workers}"
            assert stats.units_completed == stats.units_total
            assert stats.contained == 0

    def test_paper_scale_pool_matches_serial_and_keeps_pace(
        self, full_campaign_run
    ):
        full_result, serial_wall = full_campaign_run
        serial = json.dumps(result_to_obj(full_result), sort_keys=True)
        job = Campaign(CampaignConfig()).shard_job()
        speedups = []
        for workers in (2, 4):
            started = time.perf_counter()
            result, stats = execute_sharded(job, PoolConfig(workers=workers))
            speedups.append(serial_wall / (time.perf_counter() - started))
            parallel = json.dumps(result_to_obj(result), sort_keys=True)
            assert parallel == serial, f"diverged at --workers {workers}"
            assert stats.units_completed == stats.units_total
            assert stats.contained == 0
        # With four cores the pool must beat serial at some width; with
        # fewer it timeslices one core's work, so only its overhead is
        # bounded.
        assert max(speedups) > (1.0 if (os.cpu_count() or 1) >= 4 else 0.3)

    def test_digest_identical_under_kill_and_resume(
        self, tmp_path, quick_campaign_result
    ):
        serial = json.dumps(result_to_obj(quick_campaign_result), sort_keys=True)
        job = Campaign(_quick_config()).shard_job()
        # First pass populates the checkpoint; dropping every other
        # payload emulates a supervisor killed mid-sweep (each unit
        # file is atomic, so a real kill leaves exactly some subset).
        checkpoint = CampaignCheckpoint(tmp_path / "ck")
        execute_sharded(job, PoolConfig(workers=4), checkpoint=checkpoint)
        for index, unit in enumerate(job.units()):
            if index % 2:
                (checkpoint.directory / f"{unit.key}.json").unlink()
        result, stats = execute_sharded(
            job, PoolConfig(workers=2), checkpoint=checkpoint
        )
        assert stats.units_restored == stats.units_total // 2
        assert json.dumps(result_to_obj(result), sort_keys=True) == serial


class TestFaultCampaigns:
    def test_resilience_parallel_matches_serial(self):
        rconfig = ResilienceCampaignConfig(
            base=_quick_config(), sample_per_server=2
        )
        serial = resilience_result_to_obj(ResilienceCampaign(rconfig).run())
        result, stats = execute_sharded(
            ResilienceCampaign(rconfig).shard_job(), PoolConfig(workers=3)
        )
        assert resilience_result_to_obj(result) == serial
        assert stats.units_completed == stats.units_total

    def test_fuzz_parallel_matches_serial(self):
        fconfig = FuzzCampaignConfig(
            base=_quick_config(),
            mutation_kinds=(MutationKind.TRUNCATION, MutationKind.TAG_IMBALANCE),
            intensities=(0.8,),
            sample_per_server=2,
        )
        serial = fuzz_result_to_obj(FuzzCampaign(fconfig).run())
        result, _ = execute_sharded(
            FuzzCampaign(fconfig).shard_job(), PoolConfig(workers=3)
        )
        assert fuzz_result_to_obj(result) == serial


class TestCli:
    def test_run_workers_flag_produces_identical_save(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["run", "--quick", "--save", str(serial_path)]) == 0
        assert main(
            ["run", "--quick", "--workers", "2", "--save", str(parallel_path)]
        ) == 0
        captured = capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert "Parallel execution supervision" in captured.err
