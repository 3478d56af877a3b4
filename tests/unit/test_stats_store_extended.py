"""Unit tests for stats, persistence, extended campaign and the
experiments report renderer."""

import hashlib
import json
import os

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.extended import (
    LifecycleCampaign,
    LifecycleCampaignConfig,
    LifecycleCellStats,
)
from repro.core.outcomes import StepStatus
from repro.core.stats import (
    diagnostic_code_frequencies,
    error_code_taxonomy,
    maturity_ranking,
    per_language_error_rates,
    per_server_error_rates,
    wsi_association_test,
    wsi_contingency_table,
)
from repro.core.store import load_result, result_from_obj, result_to_obj, save_result
from repro.reporting import render_experiments_markdown
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

_RUN_SMOKE_DIGEST = os.path.join(
    os.path.dirname(__file__), "..", "data", "run_smoke.sha256"
)


class TestStats:
    def test_code_frequencies_cover_known_codes(self, quick_campaign_result):
        frequencies = diagnostic_code_frequencies(quick_campaign_result)
        assert frequencies["generation"]["unknown-extension"] > 0
        assert frequencies["compilation"]["unchecked"] > 0

    def test_taxonomy_sorted_descending(self, quick_campaign_result):
        taxonomy = error_code_taxonomy(quick_campaign_result)
        counts = [count for __, count in taxonomy]
        assert counts == sorted(counts, reverse=True)
        assert dict(taxonomy)["crash"] == QUICK_DOTNET_QUOTAS.script_crasher

    def test_per_language_rates(self, quick_campaign_result):
        rates = per_language_error_rates(quick_campaign_result)
        assert rates["PHP"]["error_tests"] == 0
        assert rates["Java"]["tests"] == 5 * sum(
            report.deployed for report in quick_campaign_result.servers.values()
        )
        for data in rates.values():
            assert 0.0 <= data["rate"] <= 1.0

    def test_per_server_rates(self, quick_campaign_result):
        rates = per_server_error_rates(quick_campaign_result)
        assert set(rates) == {"metro", "jbossws", "wcf"}
        for server_id, data in rates.items():
            deployed = quick_campaign_result.servers[server_id].deployed
            assert data["tests"] == deployed * 11

    def test_maturity_ranking_extremes(self, quick_campaign_result):
        ranking = maturity_ranking(quick_campaign_result)
        assert ranking[0][0] == "zend"  # never errors
        assert ranking[-1][0] == "axis1"  # the throwable wrapper bug

    def test_contingency_table_sums_to_deployed(self, quick_campaign_result):
        (a, b), (c, d) = wsi_contingency_table(quick_campaign_result)
        deployed = sum(
            report.deployed for report in quick_campaign_result.servers.values()
        )
        assert a + b + c + d == deployed
        warned = sum(
            report.sdg_warnings
            for report in quick_campaign_result.servers.values()
        )
        assert a + b == warned

    def test_association_is_significant(self, quick_campaign_result):
        outcome = wsi_association_test(quick_campaign_result)
        assert outcome["p_value"] < 1e-6
        assert outcome["odds_ratio"] > 10


class TestStore:
    def test_roundtrip_preserves_aggregates(self, quick_campaign_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(quick_campaign_result, path)
        loaded = load_result(path)
        assert loaded.totals() == quick_campaign_result.totals()
        for key, cell in quick_campaign_result.cells.items():
            assert loaded.cells[key].as_row() == cell.as_row()

    def test_roundtrip_preserves_wsi_sets(self, quick_campaign_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(quick_campaign_result, path)
        loaded = load_result(path)
        for server_id, report in quick_campaign_result.servers.items():
            assert loaded.servers[server_id].wsi_failing == report.wsi_failing

    def test_roundtrip_preserves_analysis(self, quick_campaign_result, tmp_path):
        from repro.core.analysis import headline_numbers

        path = tmp_path / "result.json"
        save_result(quick_campaign_result, path)
        loaded = load_result(path)
        assert headline_numbers(loaded) == headline_numbers(quick_campaign_result)

    def test_records_optional(self, quick_campaign_result):
        obj = result_to_obj(quick_campaign_result, include_records=False)
        assert "records" not in obj
        loaded = result_from_obj(obj)
        assert loaded.tests_executed == 0
        assert loaded.servers["metro"].deployed > 0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            result_from_obj({"format": 999})

    def test_json_serializable(self, quick_campaign_result):
        json.dumps(result_to_obj(quick_campaign_result))

    def test_quick_save_matches_the_pinned_digest(
        self, quick_campaign_result, tmp_path
    ):
        """``run --quick --save`` writes these bytes, and a load keeps them."""
        with open(_RUN_SMOKE_DIGEST, encoding="utf-8") as handle:
            pinned = handle.read().strip()
        path = tmp_path / "result.json"
        save_result(quick_campaign_result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned
        again = tmp_path / "again.json"
        save_result(load_result(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestLifecycleCampaign:
    @pytest.fixture(scope="class")
    def lifecycle_result(self):
        config = CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
        )
        return LifecycleCampaign(LifecycleCampaignConfig(config, 40)).run()

    def test_sampling_bounds_services(self, lifecycle_result):
        for count in lifecycle_result.services_per_server.values():
            assert count <= 40

    def test_cells_cover_matrix(self, lifecycle_result):
        assert len(lifecycle_result.cells) == 33

    def test_step_counters_partition_tests(self, lifecycle_result):
        for cell in lifecycle_result.cells.values():
            assert (
                cell.generation_errors
                + cell.compilation_errors
                + cell.communication_errors
                + cell.execution_errors
                + cell.completed
                == cell.tests
            )

    def test_no_execution_mismatches(self, lifecycle_result):
        """The echo server faithfully reflects inputs, so anything that
        communicates successfully must also execute successfully."""
        totals = lifecycle_result.totals()
        assert totals["execution_errors"] == 0

    def test_most_tests_complete(self, lifecycle_result):
        assert lifecycle_result.completion_ratio() > 0.8

    def test_cell_stats_add(self):
        cell = LifecycleCellStats()

        class Outcome:
            generation = StepStatus.OK
            compilation = StepStatus.OK
            communication = StepStatus.ERROR
            execution = StepStatus.SKIPPED

        cell.add(Outcome())
        assert cell.communication_errors == 1
        assert cell.error_tests == 1
        assert cell.as_row() == (0, 0, 1, 0, 0)


class TestExperimentsRenderer:
    def test_quick_report_renders(self, quick_campaign_result):
        markdown = render_experiments_markdown(quick_campaign_result)
        assert markdown.startswith("# EXPERIMENTS")
        assert "Fig. 4" in markdown
        assert "Table III" in markdown
        assert "Reconstruction notes" in markdown

    def test_full_report_all_rows_match(self, full_campaign_result):
        markdown = render_experiments_markdown(full_campaign_result, 1.0)
        assert "| NO |" not in markdown
        assert "~ (documented)" in markdown

    def test_elapsed_mentioned_when_given(self, quick_campaign_result):
        markdown = render_experiments_markdown(quick_campaign_result, 12.34)
        assert "12.3s" in markdown
