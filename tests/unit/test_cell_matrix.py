"""The one result shape: its reports, its JSON errors, lifecycle payloads.

The shared code itself is checked against the per-kind code it replaced
in ``tests/property/test_results_differential.py``.
"""

import pytest

from repro.core import CampaignConfig
from repro.core.extended import LifecycleCampaign, LifecycleCampaignConfig
from repro.core.store import CampaignCheckpoint, CheckpointMismatch
from repro.faults import (
    FuzzCampaignResult,
    FuzzCellStats,
    fuzz_result_from_obj,
    resilience_result_from_obj,
)
from repro.invoke import (
    InvocationCampaignResult,
    InvocationCellStats,
    invoke_result_from_obj,
)
from repro.reporting import render_fidelity_summary, render_triage_summary
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _client_order(table, client_ids):
    """The clients in the order their rows appear in ``table``."""
    rows = [line.split()[0] for line in table.splitlines() if line.split()]
    return [row for row in rows if row in client_ids]


class TestWorstFirst:
    """The per-client summaries list the worst client first."""

    def test_triage_summary_lists_tool_internal_first(self):
        result = FuzzCampaignResult(client_ids=("metro", "suds"))
        result.cells[("jbossws", "metro", "truncation", "0.3")] = FuzzCellStats(
            mutants=3, survived=3
        )
        result.cells[("jbossws", "suds", "truncation", "0.3")] = FuzzCellStats(
            mutants=3, tool_internal=3
        )
        order = _client_order(render_triage_summary(result), ("metro", "suds"))
        assert order == ["suds", "metro"]

    def test_fidelity_summary_lists_corrupted_first(self):
        result = InvocationCampaignResult(client_ids=("metro", "suds"))
        result.cells[("jbossws", "metro", "baseline")] = InvocationCellStats(
            payloads=3, lossless=3
        )
        result.cells[("jbossws", "suds", "baseline")] = InvocationCellStats(
            payloads=3, corrupted=3
        )
        order = _client_order(render_fidelity_summary(result), ("metro", "suds"))
        assert order == ["suds", "metro"]

    def test_fidelity_summary_breaks_corrupted_ties_on_faults(self):
        result = InvocationCampaignResult(client_ids=("metro", "suds"))
        result.cells[("jbossws", "metro", "baseline")] = InvocationCellStats(
            payloads=3, lossless=3
        )
        result.cells[("jbossws", "suds", "baseline")] = InvocationCellStats(
            payloads=3, fault=3
        )
        order = _client_order(render_fidelity_summary(result), ("metro", "suds"))
        assert order == ["suds", "metro"]


class TestFormatErrors:
    @pytest.mark.parametrize("from_obj, kind", [
        (resilience_result_from_obj, "resilience"),
        (fuzz_result_from_obj, "fuzz"),
        (invoke_result_from_obj, "invoke"),
    ])
    def test_unknown_format_names_the_kind(self, from_obj, kind):
        with pytest.raises(ValueError, match=f"^unsupported {kind} format: 2$"):
            from_obj({"format": 2})


class TestLifecycleCheckpointShape:
    """Lifecycle unit payloads key cells ``server|client``; a checkpoint
    written when they were keyed by client alone is refused."""

    def _config(self):
        base = CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS,
            dotnet_quotas=QUICK_DOTNET_QUOTAS,
            server_ids=("metro",),
            client_ids=("suds", "axis1"),
        )
        return LifecycleCampaignConfig(base, 2)

    def test_client_keyed_checkpoint_is_a_mismatch(self, tmp_path):
        config = self._config()
        campaign = LifecycleCampaign(config)
        job = campaign.shard_job()
        fingerprint = job.fingerprint()
        del fingerprint["config"]["cells"]
        checkpoint = CampaignCheckpoint(str(tmp_path))
        checkpoint.guard("manifest", fingerprint)
        unit = job.units()[0]
        counters = {
            "tests": 2, "generation_errors": 0, "compilation_errors": 0,
            "communication_errors": 0, "execution_errors": 0, "completed": 2,
        }
        checkpoint.save(unit.key, {
            "services": 2,
            "cells": {"suds": dict(counters), "axis1": dict(counters)},
        })
        with pytest.raises(CheckpointMismatch) as raised:
            campaign.run(checkpoint=checkpoint)
        assert "point --checkpoint-dir at an empty directory" in (
            raised.value.hint
        )
