"""Invocation sweeps: determinism, taxonomy totality, quarantine, CLI."""

import json

import pytest

from repro.cli import main
from repro.core import CampaignConfig, sharding
from repro.core.store import CampaignCheckpoint
from repro.invoke import (
    InvocationCampaign,
    InvocationCampaignConfig,
    PayloadClass,
    invoke_result_from_obj,
    invoke_result_to_obj,
)
from repro.reporting import (
    render_fidelity_summary,
    render_gate_summary,
    render_invoke_matrix,
)
from repro.runtime.client import GeneratedClientProxy
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

_TAXONOMY_KEYS = (
    "lossless", "coerced", "corrupted", "fault", "client_reject",
    "quarantined",
)


def _base_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
    )


def _tiny_iconfig(seed=7, **kwargs):
    defaults = dict(
        base=_base_config(client_ids=("suds", "metro", "gsoap")),
        seed=seed,
        sample_per_server=2,
        payloads_per_class=2,
    )
    defaults.update(kwargs)
    return InvocationCampaignConfig(**defaults)


class TestDeterminism:
    def test_same_seed_identical_matrices(self):
        first = InvocationCampaign(_tiny_iconfig()).run()
        second = InvocationCampaign(_tiny_iconfig()).run()
        assert invoke_result_to_obj(first) == invoke_result_to_obj(second)
        assert first.payloads_executed > 0

    def test_result_roundtrips_through_json(self):
        result = InvocationCampaign(_tiny_iconfig()).run()
        obj = json.loads(json.dumps(invoke_result_to_obj(result)))
        rebuilt = invoke_result_from_obj(obj)
        assert invoke_result_to_obj(rebuilt) == invoke_result_to_obj(result)

    def test_taxonomy_is_total(self):
        result = InvocationCampaign(_tiny_iconfig()).run()
        assert result.unclassified_total == 0
        totals = result.totals()
        assert totals["payloads"] == sum(
            totals[key] for key in _TAXONOMY_KEYS
        )
        for cell in result.cells.values():
            assert cell.payloads == sum(
                getattr(cell, key) for key in _TAXONOMY_KEYS
            )

    def test_shard_merge_matches_serial(self):
        config = _tiny_iconfig()
        serial = invoke_result_to_obj(InvocationCampaign(config).run())
        campaign = InvocationCampaign(config)
        job = campaign.shard_job()
        payloads = {
            unit.key: campaign.run_shard_unit(unit) for unit in job.units()
        }
        merged = invoke_result_to_obj(job.merge(payloads))
        assert merged == serial


class TestServiceFilter:
    def test_filter_narrows_the_sweep(self):
        everything = InvocationCampaign(_tiny_iconfig()).run()
        narrowed = InvocationCampaign(
            _tiny_iconfig(service_filter="Echojava*")
        ).run()
        assert 0 < narrowed.services_matched <= everything.services_matched

    def test_zero_match_filter_is_clean_and_empty(self):
        messages = []
        result = InvocationCampaign(
            _tiny_iconfig(service_filter="NoSuchService*")
        ).run(progress=messages.append)
        assert result.services_matched == 0
        assert result.payloads_executed == 0
        assert not result.cells
        assert any("matches filter" in message for message in messages)
        # Reporting renders the empty matrix instead of raising.
        assert "empty" in render_invoke_matrix(result)
        assert render_fidelity_summary(result)
        assert "empty sweep" in render_gate_summary(result)
        assert json.loads(json.dumps(invoke_result_to_obj(result)))

    def test_zero_match_cli_exits_zero(self, capsys):
        code = main([
            "invoke", "--quick", "--sample", "1",
            "--services", "NoSuchService*",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "nothing was invoked" in captured.err
        assert "empty" in captured.out


class TestQuarantine:
    def test_internal_bug_poisons_the_class_cell(self, monkeypatch):
        original = GeneratedClientProxy.invoke

        def buggy(self, operation_name, values, soap_headers=()):
            raise RuntimeError("planted harness bug")

        monkeypatch.setattr(GeneratedClientProxy, "invoke", buggy)
        result = InvocationCampaign(_tiny_iconfig()).run()
        monkeypatch.setattr(GeneratedClientProxy, "invoke", original)
        totals = result.totals()
        assert totals["unclassified"] > 0
        # The second payload of each class is skipped as quarantined.
        assert totals["quarantined"] > 0
        assert result.quarantine
        # Quarantine entries carry (client, payload class) granularity.
        assert all(":" in entry[2] for entry in result.quarantine)
        classes = {entry[2].split(":", 1)[1] for entry in result.quarantine}
        assert classes <= {cls.value for cls in PayloadClass}

    def test_quarantine_is_deterministic(self, monkeypatch):
        def buggy(self, operation_name, values, soap_headers=()):
            raise RuntimeError("planted harness bug")

        monkeypatch.setattr(GeneratedClientProxy, "invoke", buggy)
        first = InvocationCampaign(_tiny_iconfig()).run()
        second = InvocationCampaign(_tiny_iconfig()).run()
        assert invoke_result_to_obj(first) == invoke_result_to_obj(second)


def _dying_on_server_2():
    """A unit fault hook that interrupts the sweep at its second server."""
    seen = set()

    def dying(unit):
        seen.add(unit.server_id)
        if len(seen) > 1:
            raise KeyboardInterrupt("simulated crash during server 2")

    return dying


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        uninterrupted = InvocationCampaign(_tiny_iconfig()).run()

        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        sharding.unit_fault_hook = _dying_on_server_2()
        try:
            with pytest.raises(KeyboardInterrupt):
                InvocationCampaign(_tiny_iconfig()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None

        assert any(key.startswith("invoke-") for key in checkpoint.keys())
        resumed = InvocationCampaign(_tiny_iconfig()).run(
            checkpoint=checkpoint
        )
        assert invoke_result_to_obj(resumed) == invoke_result_to_obj(
            uninterrupted
        )

    def test_quarantine_survives_the_crash(self, tmp_path, monkeypatch):
        def buggy(self, operation_name, values, soap_headers=()):
            raise RuntimeError("planted harness bug")

        monkeypatch.setattr(GeneratedClientProxy, "invoke", buggy)
        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        sharding.unit_fault_hook = _dying_on_server_2()
        try:
            with pytest.raises(KeyboardInterrupt):
                InvocationCampaign(_tiny_iconfig()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None

        # The entries travel in the first unit's checkpointed payload.
        first = InvocationCampaign(_tiny_iconfig()).shard_job().units()[0]
        assert len(checkpoint.load(first.key)["quarantine"]) > 0

    def test_changed_config_is_rejected(self, tmp_path):
        from repro.core.store import CheckpointMismatch

        checkpoint = CampaignCheckpoint(str(tmp_path))
        InvocationCampaign(_tiny_iconfig(seed=7)).run(checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatch):
            InvocationCampaign(_tiny_iconfig(seed=8)).run(
                checkpoint=checkpoint
            )


class TestCli:
    def test_invoke_smoke_writes_json(self, tmp_path, capsys):
        out = tmp_path / "invoke.json"
        code = main([
            "invoke", "--quick", "--sample", "1", "--seed", "7",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "fidelity" in captured.out
        obj = json.loads(out.read_text())
        rebuilt = invoke_result_from_obj(obj)
        assert rebuilt.payloads_executed > 0
        assert rebuilt.unclassified_total == 0

    def test_unknown_class_exits_2(self, capsys):
        code = main(["invoke", "--quick", "--classes", "bogus-class"])
        assert code == 2
        assert "unknown payload class" in capsys.readouterr().err

    def test_class_filter_runs_subset(self, capsys):
        code = main([
            "invoke", "--quick", "--sample", "1",
            "--classes", "baseline,nil",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "numeric-boundary" not in out
