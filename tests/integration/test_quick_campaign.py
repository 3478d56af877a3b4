"""Integration tests over the scaled-down (quick) campaign.

The quick corpora keep every named special type and one representative
of every failure class, so the same behaviours must show up — just with
smaller populations.
"""

from repro.core import Campaign, CampaignConfig
from repro.core.analysis import (
    error_free_wsi_warned_services,
    headline_numbers,
    same_framework_error_tests,
)
from repro.core.outcomes import StepStatus
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS
from repro.typesystem.quotas import DotNetCatalogQuotas, JavaCatalogQuotas


def _scaled_config(scale):
    java = JavaCatalogQuotas(
        total=300 * scale,
        metro_bindable=180 * scale,
        jbossws_bindable=160 * scale + 2,
        throwable_total=30 * scale,
        throwable_metro=24 * scale,
        throwable_jbossws=20 * scale,
        script_unfriendly=4 * scale,
    )
    dotnet = DotNetCatalogQuotas(
        total=600 * scale,
        wcf_bindable=150 * scale,
        dataset_schema_ref=12 * scale,
        schema_keyref=3 * scale,
        recursive_schema_ref=1,
        xml_lang_attr=2 * scale,
        script_unfriendly=10 * scale,
        script_crasher=2 * scale,
        vb_case_collisions=4,
    )
    return CampaignConfig(java_quotas=java, dotnet_quotas=dotnet)


class TestPopulations:
    def test_tests_executed(self, quick_campaign_result):
        deployed = quick_campaign_result.services_deployed
        assert quick_campaign_result.tests_executed == deployed * 11

    def test_tests_scale_with_the_deployed_population(self):
        tests = {}
        for scale in (1, 2, 4):
            totals = Campaign(_scaled_config(scale)).run().totals()
            assert totals["tests"] == totals["services_deployed"] * 11, scale
            tests[scale] = totals["tests"]
        assert tests[4] > tests[1] * 3

    def test_deployed_counts_match_quotas(self, quick_campaign_result):
        servers = quick_campaign_result.servers
        assert servers["metro"].deployed == QUICK_JAVA_QUOTAS.metro_bindable
        assert servers["jbossws"].deployed == QUICK_JAVA_QUOTAS.jbossws_bindable
        assert servers["wcf"].deployed == QUICK_DOTNET_QUOTAS.wcf_bindable

    def test_sdg_warning_counts(self, quick_campaign_result):
        servers = quick_campaign_result.servers
        assert servers["metro"].sdg_warnings == 2  # EPR + SimpleDateFormat
        assert servers["jbossws"].sdg_warnings == 4  # + the two async handles
        assert servers["wcf"].sdg_warnings == QUICK_DOTNET_QUOTAS.wsi_failing


class TestQuirkCounts:
    def test_axis1_throwable_failures(self, quick_campaign_result):
        metro_cell = quick_campaign_result.cell("metro", "axis1")
        jboss_cell = quick_campaign_result.cell("jbossws", "axis1")
        assert metro_cell.comp_error_tests == QUICK_JAVA_QUOTAS.throwable_metro
        assert jboss_cell.comp_error_tests == QUICK_JAVA_QUOTAS.throwable_jbossws

    def test_axis_compile_warnings_cover_all_deployed(self, quick_campaign_result):
        for server_id in ("metro", "jbossws", "wcf"):
            deployed = quick_campaign_result.servers[server_id].deployed
            for client_id in ("axis1", "axis2"):
                cell = quick_campaign_result.cell(server_id, client_id)
                assert cell.comp_warning_tests == deployed

    def test_jscript_warns_on_every_java_test(self, quick_campaign_result):
        for server_id in ("metro", "jbossws"):
            cell = quick_campaign_result.cell(server_id, "dotnet-js")
            assert cell.gen_warning_tests == quick_campaign_result.servers[server_id].deployed

    def test_jscript_compile_failures(self, quick_campaign_result):
        assert (
            quick_campaign_result.cell("metro", "dotnet-js").comp_error_tests
            == QUICK_JAVA_QUOTAS.script_unfriendly
        )
        assert (
            quick_campaign_result.cell("wcf", "dotnet-js").comp_error_tests
            == QUICK_DOTNET_QUOTAS.script_unfriendly
        )

    def test_gsoap_errors_on_keyref_pool(self, quick_campaign_result):
        cell = quick_campaign_result.cell("wcf", "gsoap")
        assert cell.gen_error_tests == QUICK_DOTNET_QUOTAS.schema_keyref

    def test_suds_single_recursive_failure(self, quick_campaign_result):
        cell = quick_campaign_result.cell("wcf", "suds")
        assert cell.gen_error_tests == QUICK_DOTNET_QUOTAS.recursive_schema_ref

    def test_jaxb_family_errors_on_dataset_pool(self, quick_campaign_result):
        expected = QUICK_DOTNET_QUOTAS.dataset_schema_ref + 3  # + xs:any trio
        for client_id in ("metro", "cxf", "jbossws"):
            cell = quick_campaign_result.cell("wcf", client_id)
            assert cell.gen_error_tests == expected

    def test_vb_case_collisions(self, quick_campaign_result):
        assert quick_campaign_result.cell("metro", "dotnet-vb").comp_error_tests == 1
        assert quick_campaign_result.cell("jbossws", "dotnet-vb").comp_error_tests == 1
        assert (
            quick_campaign_result.cell("wcf", "dotnet-vb").comp_error_tests
            == QUICK_DOTNET_QUOTAS.vb_case_collisions
        )

    def test_zend_never_errors(self, quick_campaign_result):
        for server_id in ("metro", "jbossws", "wcf"):
            cell = quick_campaign_result.cell(server_id, "zend")
            assert cell.gen_error_tests == 0
            assert cell.comp_error_tests == 0


class TestInvariants:
    def test_error_in_generation_suppresses_compilation_except_axis(
        self, quick_campaign_result
    ):
        for record in quick_campaign_result.records:
            if record.generation.status is StepStatus.ERROR:
                if record.client_id in ("axis1", "axis2"):
                    assert record.compilation.status in (
                        StepStatus.WARNING, StepStatus.OK, StepStatus.ERROR,
                    )
                elif record.client_id in ("zend", "suds"):
                    assert record.compilation.status is StepStatus.NOT_APPLICABLE
                else:
                    assert record.compilation.status is StepStatus.SKIPPED

    def test_dynamic_clients_never_compile(self, quick_campaign_result):
        for record in quick_campaign_result.records:
            if record.client_id in ("zend", "suds"):
                assert record.compilation.status is StepStatus.NOT_APPLICABLE

    def test_partial_compiles_never_error(self, quick_campaign_result):
        """The Axis wrapper script compiles partial output with at most
        warnings — errors would double-count a single failing test."""
        for record in quick_campaign_result.records:
            if (
                record.client_id in ("axis1", "axis2")
                and record.generation.status is StepStatus.ERROR
            ):
                assert record.compilation.status is not StepStatus.ERROR

    def test_same_framework_errors_positive(self, quick_campaign_result):
        assert same_framework_error_tests(quick_campaign_result) > 0

    def test_wsi_survivors_are_the_lang_pool(self, quick_campaign_result):
        survivors = error_free_wsi_warned_services(quick_campaign_result)
        assert len(survivors) == QUICK_DOTNET_QUOTAS.xml_lang_attr
        assert all(server_id == "wcf" for server_id, __ in survivors)

    def test_headlines_computable(self, quick_campaign_result):
        headlines = headline_numbers(quick_campaign_result)
        assert 0.0 <= headlines["wsi_predictive_ratio"] <= 1.0

    def test_deterministic_rerun(self, quick_campaign_result):
        again = Campaign(
            CampaignConfig(
                java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
            )
        ).run()
        assert again.totals() == quick_campaign_result.totals()
        for key, cell in again.cells.items():
            assert cell.as_row() == quick_campaign_result.cells[key].as_row()
