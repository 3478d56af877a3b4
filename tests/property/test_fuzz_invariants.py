"""Corpus-driven totality invariants over 500+ seeded mutants.

The robustness contract of the harness: feed any corrupted description
to the wsdl2code front door and every layer fails *classified* —

* ``xmlcore.parser`` raises only its own :class:`XmlError` family;
* the WSDL read path raises only (XmlError, WsdlError, SchemaError);
* the guarded generate/compile pipeline never produces a
  ``tool-internal`` verdict for any client framework.

The corpus is seeded, so a violation here is a reproducible bug report:
the (seed, kind, intensity, index) recipe pins the offending mutant.
"""

import pytest

from repro.appservers import GlassFish, IisExpress, JBossAs
from repro.faults import DEFAULT_MUTATION_KINDS, WsdlMutator
from repro.faults.campaign import FuzzCampaign, FuzzCampaignConfig
from repro.frameworks.registry import all_client_frameworks
from repro.runtime import GuardLimits, TriageBucket
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, SimpleType, TypeInfo
from repro.wsdl.errors import WsdlError
from repro.wsdl.reader import read_wsdl
from repro.xmlcore import parse
from repro.xmlcore.errors import XmlError
from repro.xsd.errors import SchemaError

SEED = 20140622
INTENSITIES = (0.0, 0.5, 1.0)
MUTANTS_PER_CONFIG = 8
PIPELINE_CLIENTS = ("suds", "metro", "dotnet-cs", "gsoap")


def _deploy(container, name, extra=()):
    entry = TypeInfo(
        Language.JAVA, "pkg", name,
        properties=(
            Property("label", SimpleType.STRING),
            Property("count", SimpleType.INT),
        ) + tuple(extra),
    )
    record = container.deploy(ServiceDefinition(entry))
    assert record.accepted
    return record


@pytest.fixture(scope="module")
def base_texts():
    return [
        _deploy(GlassFish(), "AlphaSvc").wsdl_text,
        _deploy(
            JBossAs(), "BetaSvc",
            extra=(Property("ratio", SimpleType.DOUBLE),),
        ).wsdl_text,
        _deploy(IisExpress(), "GammaSvc").wsdl_text,
    ]


def _mutants(base_texts):
    """Yield 500+ seeded mutants, never holding the whole corpus."""
    mutator = WsdlMutator(SEED)
    for doc_index, text in enumerate(base_texts):
        for kind in DEFAULT_MUTATION_KINDS:
            for intensity in INTENSITIES:
                for index in range(MUTANTS_PER_CONFIG):
                    yield mutator.mutate(
                        text, kind, intensity, f"doc{doc_index}", index
                    )


def test_corpus_is_large_enough(base_texts):
    count = (
        len(base_texts) * len(DEFAULT_MUTATION_KINDS)
        * len(INTENSITIES) * MUTANTS_PER_CONFIG
    )
    assert count >= 500


def test_parser_never_raises_unclassified(base_texts):
    for mutant in _mutants(base_texts):
        try:
            parse(mutant.text)
        except XmlError:
            pass  # classified rejection: the healthy outcome
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            pytest.fail(
                f"xmlcore.parse escaped with {type(exc).__name__} "
                f"on {mutant!r}: {exc}"
            )


def test_wsdl_read_path_never_raises_unclassified(base_texts):
    for mutant in _mutants(base_texts):
        try:
            read_wsdl(parse(mutant.text))
        except (XmlError, WsdlError, SchemaError):
            pass
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            pytest.fail(
                f"WSDL read escaped with {type(exc).__name__} "
                f"on {mutant!r}: {exc}"
            )


def test_guarded_pipeline_is_total(base_texts):
    campaign = FuzzCampaign(FuzzCampaignConfig())
    limits = GuardLimits(deadline_seconds=None)
    clients = {
        client_id: client
        for client_id, client in all_client_frameworks().items()
        if client_id in PIPELINE_CLIENTS
    }
    assert len(clients) == len(PIPELINE_CLIENTS)
    for mutant in _mutants(base_texts):
        read = campaign._read(mutant, limits)
        for client_id, client in clients.items():
            bucket, rejected, detail = campaign._drive(read, client, limits)
            assert bucket is not TriageBucket.TOOL_INTERNAL, (
                f"{client_id} escaped unclassified on {mutant!r}: {detail}"
            )
