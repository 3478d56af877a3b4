"""Fuzz sweeps: determinism, quarantine, checkpoint/resume, CLI exits."""

import json

import pytest

from repro.cli import main
from repro.core import CampaignConfig, sharding
from repro.core.store import CampaignCheckpoint, QuarantineRegistry
from repro.faults import (
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    fuzz_result_from_obj,
    fuzz_result_to_obj,
)
from repro.frameworks.client import SudsClient
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _base_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
    )


def _tiny_fconfig(seed=7, **kwargs):
    defaults = dict(
        base=_base_config(client_ids=("suds", "metro", "gsoap")),
        seed=seed,
        mutation_kinds=(MutationKind.TRUNCATION, MutationKind.ENCODING_GARBAGE),
        intensities=(0.6,),
        mutants_per_config=1,
        sample_per_server=2,
    )
    defaults.update(kwargs)
    return FuzzCampaignConfig(**defaults)


def _poison_fconfig(**kwargs):
    """A sweep whose mutants parse cleanly, so client bugs are reachable.

    Gentle deep-nesting/huge-text mutants survive the read step and hit
    ``generate`` — where the tests plant an unclassified bug.
    """
    return _tiny_fconfig(
        mutation_kinds=(MutationKind.DEEP_NESTING, MutationKind.HUGE_TEXT),
        intensities=(0.0,),
        **kwargs,
    )


class TestDeterminism:
    def test_same_seed_identical_matrices(self):
        first = FuzzCampaign(_tiny_fconfig()).run()
        second = FuzzCampaign(_tiny_fconfig()).run()
        assert fuzz_result_to_obj(first) == fuzz_result_to_obj(second)
        assert first.mutants_executed > 0

    def test_different_seed_changes_outcomes(self):
        first = FuzzCampaign(_tiny_fconfig(seed=1)).run()
        second = FuzzCampaign(_tiny_fconfig(seed=2)).run()
        assert fuzz_result_to_obj(first) != fuzz_result_to_obj(second)

    def test_result_roundtrips_through_json(self):
        result = FuzzCampaign(_tiny_fconfig()).run()
        obj = json.loads(json.dumps(fuzz_result_to_obj(result)))
        rebuilt = fuzz_result_from_obj(obj)
        assert fuzz_result_to_obj(rebuilt) == fuzz_result_to_obj(result)

    def test_no_unclassified_errors_on_healthy_harness(self):
        result = FuzzCampaign(_tiny_fconfig()).run()
        assert result.unclassified_total == 0
        assert not result.quarantine
        totals = result.totals()
        # The corrupt corpus must actually exercise the failure paths.
        assert totals["parser_crash"] > 0
        assert totals["mutants"] == sum(
            totals[key]
            for key in ("survived", "rejected", "parser_crash",
                        "resource_blowup", "timeout", "tool_internal",
                        "quarantined")
        )


class TestQuarantine:
    def test_internal_bug_poisons_the_triple(self, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        result = FuzzCampaign(_poison_fconfig()).run()
        totals = result.totals()
        # First mutant per (server, service) trips the bug; every later
        # mutant for that triple is skipped as QUARANTINED.
        assert totals["tool_internal"] > 0
        assert totals["quarantined"] > 0
        assert result.quarantine
        assert all(entry[2] == "suds" for entry in result.quarantine)
        assert all(entry[3] == "tool-internal" for entry in result.quarantine)

    def test_quarantine_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        first = FuzzCampaign(_poison_fconfig()).run()
        second = FuzzCampaign(_poison_fconfig()).run()
        assert fuzz_result_to_obj(first) == fuzz_result_to_obj(second)

    def test_fail_fast_aborts_on_first_internal_error(self, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        result = FuzzCampaign(_poison_fconfig(fail_fast=True)).run()
        assert result.aborted
        assert result.totals()["tool_internal"] == 1

    def test_registry_roundtrips_through_checkpoint(self, tmp_path):
        registry = QuarantineRegistry()
        registry.poison("metro", "Svc", "suds", "timeout", "too slow")
        registry.poison("metro", "Svc", "suds", "tool-internal", "late loser")
        checkpoint = CampaignCheckpoint(str(tmp_path))
        registry.save(checkpoint)
        loaded = QuarantineRegistry.load(checkpoint)
        # First poisoning wins; the reload is lossless.
        assert loaded.entries() == [
            ("metro", "Svc", "suds", "timeout", "too slow")
        ]
        assert loaded.contains("metro", "Svc", "suds")
        assert not loaded.contains("metro", "Svc", "metro")

    def test_empty_registry_loads_from_blank_checkpoint(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path))
        assert len(QuarantineRegistry.load(checkpoint)) == 0
        assert len(QuarantineRegistry.load(None)) == 0


def _dying_on_server_2():
    """A unit fault hook that interrupts the sweep at its second server."""
    seen = set()

    def dying(unit):
        seen.add(unit.server_id)
        if len(seen) > 1:
            raise KeyboardInterrupt("simulated crash during server 2")

    return dying


class TestFuzzCheckpointResume:
    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        uninterrupted = FuzzCampaign(_tiny_fconfig()).run()

        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        sharding.unit_fault_hook = _dying_on_server_2()
        try:
            with pytest.raises(KeyboardInterrupt):
                FuzzCampaign(_tiny_fconfig()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None

        assert any(key.startswith("fuzz-") for key in checkpoint.keys())
        resumed = FuzzCampaign(_tiny_fconfig()).run(checkpoint=checkpoint)
        assert fuzz_result_to_obj(resumed) == fuzz_result_to_obj(uninterrupted)

    def test_resume_under_quarantine_is_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        uninterrupted = FuzzCampaign(_poison_fconfig()).run()

        checkpoint = CampaignCheckpoint(str(tmp_path / "ckpt"))
        sharding.unit_fault_hook = _dying_on_server_2()
        try:
            with pytest.raises(KeyboardInterrupt):
                FuzzCampaign(_poison_fconfig()).run(checkpoint=checkpoint)
        finally:
            sharding.unit_fault_hook = None

        # The poison list survived the crash inside the first unit's
        # payload.
        first = FuzzCampaign(_poison_fconfig()).shard_job().units()[0]
        assert len(checkpoint.load(first.key)["quarantine"]) > 0

        resumed = FuzzCampaign(_poison_fconfig()).run(checkpoint=checkpoint)
        assert fuzz_result_to_obj(resumed) == fuzz_result_to_obj(uninterrupted)
        assert resumed.totals()["quarantined"] > 0

    def test_checkpoint_rejects_different_seed(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path))
        FuzzCampaign(_tiny_fconfig(seed=1)).run(checkpoint=checkpoint)
        with pytest.raises(ValueError, match="different campaign"):
            FuzzCampaign(_tiny_fconfig(seed=2)).run(checkpoint=checkpoint)

    def test_checkpoint_rejects_different_sweep_shape(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path))
        FuzzCampaign(_tiny_fconfig()).run(checkpoint=checkpoint)
        reshaped = _tiny_fconfig(intensities=(0.6, 0.9))
        with pytest.raises(ValueError, match="different campaign"):
            FuzzCampaign(reshaped).run(checkpoint=checkpoint)


class TestFuzzCli:
    _FAST = [
        "fuzz", "--quick", "--seed", "7", "--sample", "1",
        "--kinds", "truncation", "--intensities", "0.5",
    ]
    # Gentle deep-nesting parses fine, so planted generator bugs trip.
    _REACHING = [
        "fuzz", "--quick", "--seed", "7", "--sample", "1",
        "--kinds", "deep-nesting", "--intensities", "0.0",
    ]

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(list(self._FAST)) == 0
        out = capsys.readouterr().out
        assert "Crash-triage totals" in out
        assert "tool_internal: 0" in out

    def test_json_export(self, tmp_path, capsys):
        path = str(tmp_path / "fuzz.json")
        assert main(list(self._FAST) + ["--json", path]) == 0
        obj = json.loads(open(path, encoding="utf-8").read())
        assert obj["format"] == 1 and obj["seed"] == 7
        assert obj["cells"]

    def test_unknown_kind_exits_two(self, capsys):
        assert main(["fuzz", "--quick", "--kinds", "coffee-spill"]) == 2
        assert "unknown mutation kind" in capsys.readouterr().err

    def test_bad_intensity_exits_two(self, capsys):
        assert main(["fuzz", "--quick", "--intensities", "1.5"]) == 2
        assert main(["fuzz", "--quick", "--intensities", "lots"]) == 2

    def test_unclassified_errors_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        assert main(list(self._REACHING)) == 3
        assert "unclassified" in capsys.readouterr().err

    def test_fail_fast_aborts_with_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(
            SudsClient, "generate",
            lambda self, document: (_ for _ in ()).throw(
                RuntimeError("planted harness bug")
            ),
        )
        assert main(list(self._REACHING) + ["--fail-fast"]) == 3
        assert "aborted" in capsys.readouterr().err
