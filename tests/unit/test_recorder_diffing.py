"""Unit tests for the transport recorder and result diffing."""

import pytest

from repro.appservers import GlassFish
from repro.core import canon
from repro.regress.diff import DriftClass, diff_matrices, totals_delta
from repro.core.outcomes import ClientTestRecord, classify
from repro.core.results import CampaignResult, ServerRunReport
from repro.frameworks.client import SudsClient
from repro.runtime import (
    EchoServiceEndpoint,
    GeneratedClientProxy,
    InMemoryHttpTransport,
)
from repro.runtime.recorder import TransportRecorder, check_exchange
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, TypeInfo
from repro.wsdl import read_wsdl_text


def _recorded_roundtrip():
    entry = TypeInfo(Language.JAVA, "pkg", "Plain",
                     properties=(Property("size"),))
    record = GlassFish().deploy(ServiceDefinition(entry))
    recorder = TransportRecorder(InMemoryHttpTransport())
    EchoServiceEndpoint(record).mount(recorder)
    document = read_wsdl_text(record.wsdl_text)
    client = SudsClient()
    proxy = GeneratedClientProxy(client.generate(document).bundle, document, recorder)
    proxy.invoke("echoPlain", {"size": "9"})
    return recorder


class TestRecorder:
    def test_exchange_captured(self):
        recorder = _recorded_roundtrip()
        assert len(recorder.exchanges) == 1
        exchange = recorder.exchanges[0]
        assert exchange.ok
        assert "echoPlain" in exchange.request_body
        assert "echoPlainResponse" in exchange.response_body

    def test_requests_sent_delegates(self):
        recorder = _recorded_roundtrip()
        assert recorder.requests_sent == 1

    def test_conformant_exchange_passes_check(self):
        recorder = _recorded_roundtrip()
        assert check_exchange(recorder.exchanges[0]) == []

    def test_check_flags_non_soap_request(self):
        from repro.runtime.recorder import Exchange

        problems = check_exchange(
            Exchange("http://x", "not xml", 200, "<also-bad/>")
        )
        assert "request is not a SOAP envelope" in problems[0]

    def test_check_flags_mismatched_response(self):
        from repro.runtime.recorder import Exchange
        from repro.soap.envelope import serialize_envelope
        from repro.xmlcore import Element, QName

        request = serialize_envelope(body_element=Element(QName("urn:a", "ping")))
        response = serialize_envelope(body_element=Element(QName("urn:a", "wrong")))
        problems = check_exchange(Exchange("http://x", request, 200, response))
        assert any("does not match" in p for p in problems)

    def test_fault_is_conformant_answer(self):
        from repro.runtime.recorder import Exchange
        from repro.soap.envelope import SoapFault, serialize_envelope
        from repro.xmlcore import Element, QName

        request = serialize_envelope(body_element=Element(QName("urn:a", "ping")))
        response = serialize_envelope(fault=SoapFault("soapenv:Client", "nope"))
        assert check_exchange(Exchange("http://x", request, 500, response)) == []


def _result_with(cells):
    result = CampaignResult(server_ids=("s",), client_ids=("a", "b"))
    result.servers["s"] = ServerRunReport(server_id="s", services_total=2, deployed=2)
    for client_id, gen_err in cells.items():
        record = ClientTestRecord(
            server_id="s", client_id=client_id, service_name="Svc",
            generation=classify(gen_err, 0), compilation=classify(0, 0),
        )
        result.add_record(record)
    return result


class TestDiffing:
    """Two run results through the drift diff of :mod:`repro.regress.diff`."""

    def test_identical_results_equivalent(self):
        before = _result_with({"a": 0, "b": 1})
        after = _result_with({"a": 0, "b": 1})
        assert _snapshot(before) == _snapshot(after)
        assert _drift(before, after) == []

    def test_changed_cell_detected(self):
        before = _result_with({"a": 0, "b": 1})
        after = _result_with({"a": 1, "b": 1})
        entries = _drift(before, after)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.cell == "s|a"
        assert entry.drift is DriftClass.NEW_FAILURE
        assert entry.changed_metrics == (("gen_error_tests", 0, 1),)
        assert "->" in str(entry)

    def test_totals_diff(self):
        before = _result_with({"a": 0, "b": 0})
        after = _result_with({"a": 1, "b": 0})
        moved = totals_delta(
            "run", canon.canonical_totals("run", before),
            canon.canonical_totals("run", after),
        )
        assert moved["gen_error_tests"] == (0, 1)
        assert moved["error_situations"] == (0, 1)

    def test_full_reruns_are_equivalent(self, quick_campaign_result):
        from repro.core import Campaign, CampaignConfig
        from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

        again = Campaign(
            CampaignConfig(
                java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
            )
        ).run()
        assert _snapshot(quick_campaign_result) == _snapshot(again)


def _snapshot(result):
    return canon.snapshot("run", result, fingerprint={})


def _drift(before, after):
    return diff_matrices(
        "run", canon.canonical_matrix("run", before),
        canon.canonical_matrix("run", after),
    )
