"""Resilience sweeps: determinism, checkpoint/resume, crash-safe store."""

import json
import os

import pytest

from repro.core import Campaign, CampaignConfig, sharding
from repro.core.store import (
    CampaignCheckpoint,
    load_result,
    result_to_obj,
    save_result,
)
from repro.faults import (
    FaultKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    resilience_result_from_obj,
    resilience_result_to_obj,
)
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _base_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
    )


def _tiny_rconfig(seed=99):
    return ResilienceCampaignConfig(
        base=_base_config(client_ids=("suds", "metro", "gsoap")),
        seed=seed,
        fault_kinds=(FaultKind.HTTP_503, FaultKind.CONNECTION_REFUSED),
        rates=(0.4,),
        sample_per_server=3,
    )


class TestDeterminism:
    def test_same_seed_identical_matrices(self):
        first = ResilienceCampaign(_tiny_rconfig()).run()
        second = ResilienceCampaign(_tiny_rconfig()).run()
        assert resilience_result_to_obj(first) == resilience_result_to_obj(
            second
        )
        assert first.tests_executed > 0

    def test_different_seed_changes_outcomes(self):
        first = ResilienceCampaign(_tiny_rconfig(seed=1)).run()
        second = ResilienceCampaign(_tiny_rconfig(seed=2)).run()
        assert resilience_result_to_obj(first) != resilience_result_to_obj(
            second
        )

    def test_result_roundtrips_through_json(self):
        result = ResilienceCampaign(_tiny_rconfig()).run()
        obj = json.loads(json.dumps(resilience_result_to_obj(result)))
        rebuilt = resilience_result_from_obj(obj)
        assert resilience_result_to_obj(rebuilt) == resilience_result_to_obj(
            result
        )

    def test_faults_reduce_survival(self):
        quiet = _tiny_rconfig()
        quiet.rates = (0.0,)
        stormy = _tiny_rconfig()
        stormy.rates = (0.9,)
        calm = ResilienceCampaign(quiet).run()
        chaos = ResilienceCampaign(stormy).run()
        assert chaos.totals()["completed"] < calm.totals()["completed"]
        assert calm.totals()["faults_injected"] == 0

    def test_retrying_clients_survive_better_under_503(self):
        config = ResilienceCampaignConfig(
            base=_base_config(client_ids=("metro", "suds")),
            seed=5,
            fault_kinds=(FaultKind.HTTP_503,),
            rates=(0.5,),
            sample_per_server=6,
        )
        result = ResilienceCampaign(config).run()
        survival = result.client_survival(FaultKind.HTTP_503.value, 0.5)
        assert survival["metro"] > survival["suds"]
        assert result.totals()["recovered"] > 0


class TestResilienceCheckpointResume:
    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        uninterrupted = ResilienceCampaign(_tiny_rconfig()).run()

        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        campaign = ResilienceCampaign(_tiny_rconfig())
        original = ResilienceCampaign._run_cell
        calls = {"servers_seen": set()}

        def dying(self, cell, server_id, *args, **kwargs):
            calls["servers_seen"].add(server_id)
            if len(calls["servers_seen"]) > 1:
                raise KeyboardInterrupt("simulated crash during server 2")
            return original(self, cell, server_id, *args, **kwargs)

        ResilienceCampaign._run_cell = dying
        try:
            with pytest.raises(KeyboardInterrupt):
                campaign.run(checkpoint=checkpoint)
        finally:
            ResilienceCampaign._run_cell = original

        # Server 1 is checkpointed; servers 2-3 are not.
        assert any(key.startswith("resilience-") for key in checkpoint.keys())

        resumed = ResilienceCampaign(_tiny_rconfig()).run(
            checkpoint=checkpoint
        )
        assert resilience_result_to_obj(resumed) == resilience_result_to_obj(
            uninterrupted
        )

    def test_checkpoint_rejects_different_campaign(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path))
        ResilienceCampaign(_tiny_rconfig(seed=1)).run(checkpoint=checkpoint)
        with pytest.raises(ValueError, match="different campaign"):
            ResilienceCampaign(_tiny_rconfig(seed=2)).run(
                checkpoint=checkpoint
            )


class TestCampaignCheckpointResume:
    def _config(self):
        return _base_config(client_ids=("suds", "zend"))

    def test_resume_is_byte_identical_to_uninterrupted(self, tmp_path):
        uninterrupted = Campaign(self._config()).run()
        plain_path = str(tmp_path / "plain.json")
        save_result(uninterrupted, plain_path)

        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        seen = set()

        def dying(unit):
            seen.add(unit.server_id)
            if len(seen) > 1:
                raise KeyboardInterrupt("simulated crash during server 2")

        sharding.unit_fault_hook = dying
        try:
            with pytest.raises(KeyboardInterrupt):
                Campaign(self._config()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None

        resumed = Campaign(self._config()).run(checkpoint=checkpoint)
        resumed_path = str(tmp_path / "resumed.json")
        save_result(resumed, resumed_path)
        with open(plain_path, "rb") as a, open(resumed_path, "rb") as b:
            assert a.read() == b.read()

    def test_fully_checkpointed_run_reloads_without_rerun(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path))
        first = Campaign(self._config()).run(checkpoint=checkpoint)

        def exploding(unit):
            raise AssertionError("should not re-run any unit")

        sharding.unit_fault_hook = exploding
        try:
            second = Campaign(self._config()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None
        assert result_to_obj(first) == result_to_obj(second)
        # Wall times come from the checkpoint, not from a re-run.
        assert second.meta["wall_seconds"] == first.meta["wall_seconds"]


class TestAtomicStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        result = Campaign(_base_config(client_ids=("suds",))).run()
        path = str(tmp_path / "result.json")
        save_result(result, path)
        assert result_to_obj(load_result(path)) == result_to_obj(result)
        # No temp droppings left behind.
        assert os.listdir(str(tmp_path)) == ["result.json"]

    def test_failed_save_preserves_existing_file(self, tmp_path):
        result = Campaign(_base_config(client_ids=("suds",))).run()
        path = str(tmp_path / "result.json")
        save_result(result, path)
        before = open(path, "rb").read()

        # Sets are not JSON-serializable: the dump dies mid-write.
        broken = result_to_obj(result)
        broken["servers"] = {"oops": {"bad": {1, 2, 3}}}
        from repro.core.store import write_json_atomic

        with pytest.raises(TypeError):
            write_json_atomic(broken, path)
        assert open(path, "rb").read() == before
        assert os.listdir(str(tmp_path)) == ["result.json"]


class TestFlagOverrideRestoration:
    def test_overrides_do_not_leak_into_shared_instances(self, monkeypatch):
        from repro.core import campaign as campaign_module
        from repro.frameworks.registry import all_client_frameworks

        shared = all_client_frameworks()
        monkeypatch.setattr(
            campaign_module, "all_client_frameworks", lambda: shared
        )
        axis1 = shared["axis1"]
        assert axis1.throwable_wrapper_bug is True

        config = _base_config(
            client_ids=("axis1",),
            server_ids=("metro",),
            client_flag_overrides={"axis1": {"throwable_wrapper_bug": False}},
        )
        Campaign(config).run()
        # The shared instance is back to its documented behaviour.
        assert axis1.throwable_wrapper_bug is True

    def test_overrides_restored_even_when_run_crashes(self, monkeypatch):
        from repro.core import campaign as campaign_module
        from repro.frameworks.registry import all_client_frameworks

        shared = all_client_frameworks()
        monkeypatch.setattr(
            campaign_module, "all_client_frameworks", lambda: shared
        )
        # Crash inside the unit, while the overrides are applied.
        monkeypatch.setattr(
            campaign_module,
            "run_client_test",
            lambda *args, **kwargs: (_ for _ in ()).throw(
                RuntimeError("boom")
            ),
        )
        config = _base_config(
            client_ids=("axis1",),
            server_ids=("metro",),
            client_flag_overrides={"axis1": {"throwable_wrapper_bug": False}},
        )
        with pytest.raises(RuntimeError):
            Campaign(config).run()
        assert shared["axis1"].throwable_wrapper_bug is True

    def test_unknown_flag_still_rejected(self):
        config = _base_config(
            client_ids=("axis1",),
            server_ids=("metro",),
            client_flag_overrides={"axis1": {"not_a_flag": True}},
        )
        with pytest.raises(AttributeError, match="not_a_flag"):
            Campaign(config).run()
