"""Client-independent work happens once per sweep, and stays that way.

Each test pins one count that must not grow with the number of clients
or with the size of the deployed corpus:

* a fuzz mutant is read once, however many clients drive it;
* an echoed response is parsed once, by the client proxy — the
  response validator reuses that envelope;
* a sampled sweep serializes the WSDL of each sampled record once and
  of no other record;
* ``run`` serializes every deployed record once, in one batch before
  its first read.
"""

import itertools

import pytest

import repro.appservers.container as container_module
import repro.core.campaign as campaign_module
import repro.invoke.campaign as invoke_campaign_module
import repro.invoke.response as response_module
from repro.core import Campaign, CampaignConfig
from repro.core.extended import LifecycleCampaign
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    ResilienceCampaign,
    ResilienceCampaignConfig,
)
from repro.invoke.campaign import InvocationCampaign, InvocationCampaignConfig
from repro.obs import Tracer, activate, trace_id_for
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _quick_config():
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )


@pytest.fixture
def serialized(monkeypatch):
    """Every document ``serialize_wsdl`` is called with, in call order."""
    documents = []
    original = container_module.serialize_wsdl

    def counting(document, *args, **kwargs):
        documents.append(document)
        return original(document, *args, **kwargs)

    monkeypatch.setattr(container_module, "serialize_wsdl", counting)
    return documents


def _assert_once_each(documents, expected):
    assert len(documents) == expected
    assert len({id(document) for document in documents}) == expected


class TestFuzzReadsEachMutantOnce:
    def test_wsdl_read_spans_equal_the_mutants_read(self):
        config = FuzzCampaignConfig(base=_quick_config(), sample_per_server=2)
        tracer = Tracer(trace_id_for("fuzz", config.fingerprint()))
        with activate(tracer):
            result = FuzzCampaign(config).run()
        spans = [event for event in tracer.events if event["type"] == "span"]
        driven = [
            span for span in spans
            if span["name"] == "mutant"
            and not (span["notes"] or {}).get("quarantined")
        ]
        mutants_read = {
            (span["parent"], span["attrs"]["service"], span["attrs"]["kind"],
             span["attrs"]["intensity"], span["attrs"]["index"])
            for span in driven
        }
        reads = [span for span in spans if span["name"] == "wsdl-read"]
        assert len(config.base.client_ids) > 1
        assert len(driven) > len(mutants_read) > 0
        assert len(reads) == len(mutants_read)
        assert result.unclassified_total == 0


class TestInvokeParsesEachResponseOnce:
    def test_validator_reuses_the_proxy_envelope(self, monkeypatch):
        validated = []
        original_validate = invoke_campaign_module.validate_response

        def counting_validate(*args, **kwargs):
            validated.append(kwargs.get("envelope"))
            return original_validate(*args, **kwargs)

        def second_parse(body):
            raise AssertionError("validate_response parsed a response again")

        monkeypatch.setattr(
            invoke_campaign_module, "validate_response", counting_validate
        )
        monkeypatch.setattr(response_module, "parse_envelope", second_parse)
        config = InvocationCampaignConfig(
            base=_quick_config(), sample_per_server=2, payloads_per_class=1,
        )
        result = InvocationCampaign(config).run()
        assert validated and all(
            envelope is not None for envelope in validated
        )
        assert result.totals()["lossless"] > 0


class TestSampledSweepsSerializeOnlyTheirSample:
    def test_fuzz(self, serialized):
        result = FuzzCampaign(FuzzCampaignConfig(
            base=_quick_config(), sample_per_server=2,
        )).run()
        _assert_once_each(serialized, sum(result.services_per_server.values()))

    def test_invoke(self, serialized):
        result = InvocationCampaign(InvocationCampaignConfig(
            base=_quick_config(), sample_per_server=2, payloads_per_class=1,
        )).run()
        _assert_once_each(serialized, sum(result.services_per_server.values()))

    def test_resilience(self, serialized):
        result = ResilienceCampaign(ResilienceCampaignConfig(
            base=_quick_config(), sample_per_server=2,
            fault_kinds=(FaultKind.HTTP_503,), rates=(0.4,),
        )).run()
        _assert_once_each(serialized, sum(result.services_per_server.values()))

    def test_lifecycle_campaign(self, serialized):
        result = LifecycleCampaign(_quick_config(), sample_per_server=2).run()
        _assert_once_each(serialized, sum(result.services_per_server.values()))


class TestRunSerializesInOneBatch:
    def test_every_deployed_record_before_the_first_read(
        self, serialized, monkeypatch
    ):
        #: Per read: how many serializations came before it.
        log = []
        original_read = campaign_module.read_wsdl_text

        def logging_read(text):
            log.append(len(serialized))
            return original_read(text)

        monkeypatch.setattr(campaign_module, "read_wsdl_text", logging_read)
        config = _quick_config()
        result = Campaign(config).run()

        deployed = [
            result.servers[server].deployed for server in config.server_ids
        ]
        _assert_once_each(serialized, sum(deployed))
        # Per server: all of its serializations, then all of its reads.
        serialized_before_read = [
            (done, len(list(reads))) for done, reads in itertools.groupby(log)
        ]
        assert serialized_before_read == [
            (sum(deployed[: index + 1]), count)
            for index, count in enumerate(deployed)
        ]
