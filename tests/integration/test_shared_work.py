"""Client-independent work happens once per sweep, and stays that way.

Each test pins one count that must not grow with the number of clients
or with the size of the deployed corpus:

* a fuzz mutant is read once, however many clients drive it, and a
  dynamic client instantiates its proxy once, inside ``generate``;
* ``invoke``, ``resilience`` and ``lifecycle-campaign`` read each
  sampled record once per unit, and every client shares that read;
* an echoed response is parsed once, by the client proxy — the
  response validator reuses that envelope;
* a sampled sweep serializes the WSDL of each sampled record once and
  of no other record;
* ``run`` serializes every deployed record once, in one batch before
  its first read;
* ``run`` scans each read document for schema facts once, whatever the
  number of clients, and searches for reference cycles only when a
  client that fails on them takes part;
* every step outcome a ``run`` result holds is the one shared object
  for its verdict, however the result was assembled.
"""

import dataclasses
import itertools
import multiprocessing

import pytest

import repro.appservers.container as container_module
import repro.core.campaign as campaign_module
import repro.frameworks.client.engine as engine_module
import repro.invoke.campaign as invoke_campaign_module
import repro.invoke.response as response_module
import repro.runtime.lifecycle as lifecycle_module
from repro.core import Campaign, CampaignConfig
from repro.core.outcomes import intern_outcome
from repro.core.store import CampaignCheckpoint, result_to_obj
from repro.core.extended import LifecycleCampaign
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    ResilienceCampaign,
    ResilienceCampaignConfig,
)
from repro.invoke.campaign import InvocationCampaign, InvocationCampaignConfig
from repro.frameworks.registry import CLIENT_IDS, all_client_frameworks
from repro.obs import Tracer, activate, trace_id_for
from repro.runtime import GuardLimits
from repro.runtime.lifecycle import SharedReads, run_full_lifecycle
from repro.runtime.pool import PoolConfig, execute_sharded
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _quick_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
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


class TestFuzzInstantiatesOnce:
    def test_a_dynamic_clients_trace_holds_no_instantiate_span(self):
        """``generate`` already instantiates a dynamic client's proxy,
        so the fuzz pipeline runs no second, guarded instantiate."""
        config = FuzzCampaignConfig(
            base=_quick_config(
                server_ids=("metro",), client_ids=("zend", "suds"),
            ),
            sample_per_server=2,
        )
        tracer = Tracer(trace_id_for("fuzz", config.fingerprint()))
        with activate(tracer):
            FuzzCampaign(config).run()
        spans = [event for event in tracer.events if event["type"] == "span"]
        survived = [
            span for span in spans
            if span["name"] == "mutant"
            and (span["notes"] or {}).get("bucket") == "clean"
            and not span["notes"]["rejected"]
        ]
        assert {span["attrs"]["client"] for span in survived} == {
            "zend", "suds",
        }
        assert [span for span in spans if span["name"] == "generate"]
        assert not [span for span in spans if span["name"] == "instantiate"]


def _traced_read_spans(kind, config, campaign):
    """Run ``campaign`` traced; its result and its ``wsdl-read`` spans."""
    tracer = Tracer(trace_id_for(kind, config.fingerprint()))
    with activate(tracer):
        result = campaign.run()
    spans = [event for event in tracer.events if event["type"] == "span"]
    return result, [span for span in spans if span["name"] == "wsdl-read"]


class TestSampledSweepsReadEachRecordOnce:
    """One ``wsdl-read`` per sampled record per unit, not per client."""

    def _assert_once_per_record(self, result, reads, config):
        sampled = sum(result.services_per_server.values())
        assert len(config.base.client_ids) > 1
        assert sampled > 0
        assert len(reads) == sampled

    def test_invoke(self):
        config = InvocationCampaignConfig(
            base=_quick_config(), sample_per_server=2, payloads_per_class=1,
        )
        result, reads = _traced_read_spans(
            "invoke", config, InvocationCampaign(config)
        )
        self._assert_once_per_record(result, reads, config)

    def test_resilience(self):
        config = ResilienceCampaignConfig(
            base=_quick_config(), sample_per_server=2,
            fault_kinds=(FaultKind.HTTP_503, FaultKind.LATENCY),
            rates=(0.4,),
        )
        result, reads = _traced_read_spans(
            "resilience", config, ResilienceCampaign(config)
        )
        self._assert_once_per_record(result, reads, config)

    def test_lifecycle_campaign(self):
        campaign = LifecycleCampaign(_quick_config(), sample_per_server=2)
        config = campaign.shard_job().config
        result, reads = _traced_read_spans("lifecycle", config, campaign)
        self._assert_once_per_record(result, reads, config)

    def test_the_shared_document_is_left_as_read(self, monkeypatch):
        """No client's gate, proxy or invocations change the document
        every client of the record shares."""
        taken = []
        original = lifecycle_module.guarded_read

        def keeping(text, limits=None):
            verdict = original(text, limits)
            taken.append((verdict, text, limits))
            return verdict

        monkeypatch.setattr(lifecycle_module, "guarded_read", keeping)
        InvocationCampaign(InvocationCampaignConfig(
            base=_quick_config(), sample_per_server=2, payloads_per_class=1,
        )).run()
        LifecycleCampaign(_quick_config(), sample_per_server=2).run()
        assert len(taken) > 2
        for verdict, text, limits in taken:
            # A fresh read of the same text is the document as read.
            assert verdict.ok
            assert verdict.value == original(text, limits).value


class TestASharedFailedReadFailsEachClientAsBefore:
    """A shared read that fails gives every client the outcome it got
    when each client read the WSDL itself."""

    @pytest.fixture(scope="class")
    def record(self):
        from repro.appservers import container_for

        config = _quick_config()
        container = container_for("metro")
        container.deploy_corpus(Campaign(config).corpus_for("metro"))
        return container.deployed[0]

    def _outcomes(self, record, limits):
        reads = SharedReads(limits)
        shared, own = [], []
        for client_id, client in all_client_frameworks().items():
            shared.append(run_full_lifecycle(
                record, client, client_id=client_id, limits=limits,
                reads=reads,
            ))
            own.append(run_full_lifecycle(
                record, client, client_id=client_id, limits=limits,
            ))
        return shared, own

    def test_unparseable_wsdl(self, record):
        broken = dataclasses.replace(record)
        broken.wsdl_text = record.wsdl_text[: len(record.wsdl_text) // 2]
        shared, own = self._outcomes(broken, None)
        assert shared == own
        assert {outcome.triage for outcome in shared} == {"parser-crash"}
        assert all(
            outcome.generation.value == "error" for outcome in shared
        )

    def test_wsdl_over_the_input_budget(self, record):
        limits = GuardLimits(deadline_seconds=None, max_input_bytes=100)
        shared, own = self._outcomes(record, limits)
        assert shared == own
        assert {outcome.triage for outcome in shared} == {"resource-blowup"}
        assert all(
            outcome.detail.startswith("[resource-blowup] wsdl-read: input of")
            for outcome in shared
        )


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


@pytest.fixture
def reads(monkeypatch):
    """Every document ``run`` reads, in read order."""
    documents = []
    original = campaign_module.read_wsdl_text

    def logging_read(text):
        document = original(text)
        documents.append(document)
        return document

    monkeypatch.setattr(campaign_module, "read_wsdl_text", logging_read)
    return documents


@pytest.fixture
def scans(monkeypatch):
    """Every document ``schema_facts`` scans, wherever it is called."""
    documents = []
    original = engine_module.schema_facts

    def counting(document):
        documents.append(document)
        return original(document)

    monkeypatch.setattr(engine_module, "schema_facts", counting)
    return documents


class TestRunScansEachDocumentOnce:
    def test_facts_once_per_read_document(self, reads, scans):
        config = _quick_config()
        result = Campaign(config).run()
        assert len(config.client_ids) > 1
        assert len(reads) == result.services_deployed
        assert len(scans) == len(reads)
        assert all(scanned is read for scanned, read in zip(scans, reads))

    def test_a_client_parse_is_scanned_for_itself(self, reads, scans):
        config = _quick_config(
            server_ids=("jbossws",), parse_per_client=True
        )
        Campaign(config).run()
        per_service = 1 + len(config.client_ids)
        assert len(reads) % per_service == 0
        # Each client's own parse is the document scanned for it; the
        # shared parse is scanned for nobody.
        client_reads = [
            document for index, document in enumerate(reads)
            if index % per_service
        ]
        assert len(scans) == len(client_reads)
        assert all(
            scanned is read for scanned, read in zip(scans, client_reads)
        )

    def test_a_parse_per_client_run_gives_the_default_records(
        self, quick_campaign_result
    ):
        own_parses = Campaign(_quick_config(parse_per_client=True)).run()
        assert result_to_obj(own_parses) == result_to_obj(quick_campaign_result)

    def test_no_cycle_search_without_a_client_that_fails_on_cycles(
        self, monkeypatch
    ):
        searched = []
        original = engine_module._has_reference_cycle

        def counting(document):
            searched.append(document)
            return original(document)

        monkeypatch.setattr(engine_module, "_has_reference_cycle", counting)
        without_suds = tuple(
            client_id for client_id in CLIENT_IDS if client_id != "suds"
        )
        Campaign(_quick_config(client_ids=without_suds)).run()
        assert searched == []
        result = Campaign(_quick_config(client_ids=("metro", "suds"))).run()
        assert len(searched) == result.services_deployed


def _assert_interned(result):
    outcomes = [
        outcome
        for record in result.records
        for outcome in (record.generation, record.compilation)
    ]
    assert outcomes
    for outcome in outcomes:
        assert intern_outcome(
            outcome.status, outcome.error_count, outcome.warning_count,
            outcome.codes,
        ) is outcome


class TestRunSharesOneOutcomePerVerdict:
    def test_serial_run(self):
        _assert_interned(Campaign(_quick_config()).run())

    def test_checkpoint_resume(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path / "ck"))
        Campaign(_quick_config()).run(checkpoint=checkpoint)
        # Every unit is restored from its JSON file this time.
        _assert_interned(Campaign(_quick_config()).run(checkpoint=checkpoint))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the pool's workers rely on the fork start method",
    )
    def test_two_worker_merge(self):
        result, _ = execute_sharded(
            Campaign(_quick_config()).shard_job(), PoolConfig(workers=2)
        )
        _assert_interned(result)
