"""Differential oracle: shared schema facts and scoped symbol lookup.

``tests/analysis_reference.py`` keeps the per-client schema scan and the
compilers' copy-per-scope symbol resolution that the schema-fact scan
and the once-folded builtins replaced.  Every document here goes through
all eleven client models twice — scanning for itself, and reading facts
shared with the other clients — and both must report the reference's
diagnostics: same severity, code and message, in the same order.  Every
bundle goes through all five compilers against the reference compile.
"""

import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.appservers import container_for
from repro.artifacts import (
    ArtifactBundle,
    CodeUnit,
    FieldDecl,
    MethodDecl,
    ParamDecl,
    UnitKind,
)
from repro.compilers import (
    CppCompiler,
    CSharpCompiler,
    JavaCompiler,
    JScriptCompiler,
    VisualBasicCompiler,
)
from repro.core import Campaign, CampaignConfig
from repro.faults import FuzzCampaign, FuzzCampaignConfig, MutationKind, WsdlMutator
from repro.frameworks.client.engine import (
    DANGLING_REF,
    DUPLICATE_ATTRIBUTE,
    IMPORT_WITHOUT_LOCATION,
    KEYREF,
    LAX_WILDCARD,
    NOTATION_ATTRIBUTE,
    XSD_NAMESPACE_REF,
    schema_facts,
)
from repro.frameworks.registry import all_client_frameworks
from repro.runtime import GuardLimits
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS
from repro.wsdl import WsdlDocument, read_wsdl_text
from repro.wsdl.model import SoapOperation, WsdlMessage
from repro.xmlcore import QName, XSD_NS
from repro.xsd import (
    AnyParticle,
    AttributeDecl,
    ComplexType,
    ElementDecl,
    ElementParticle,
    IdentityConstraint,
    RefParticle,
    Schema,
    SchemaImport,
)
from tests.analysis_reference import reference_compile, reference_generation

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "golden")

CLIENTS = all_client_frameworks()
COMPILERS = (
    JavaCompiler(), CSharpCompiler(), VisualBasicCompiler(),
    JScriptCompiler(), CppCompiler(),
)


def _quick_config():
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )


def assert_same_generation(document, label):
    """Every client reports the reference's diagnostics, both ways."""
    facts = schema_facts(document)
    for client_id, client in CLIENTS.items():
        expected = reference_generation(client, document).diagnostics
        scanned = client.generate(document).diagnostics
        shared = client.generate(document, facts).diagnostics
        assert scanned == expected, (label, client_id)
        assert shared == expected, (label, client_id)


# -- real documents ----------------------------------------------------------


@pytest.fixture(scope="module")
def quick_run_texts():
    """The WSDL text of every service ``run --quick`` tests."""
    campaign = Campaign(_quick_config())
    texts = []
    for server_id in campaign.config.server_ids:
        container = container_for(server_id)
        container.deploy_corpus(campaign.corpus_for(server_id))
        texts.extend(
            (f"{server_id}/{record.service.name}", record.wsdl_text)
            for record in container.deployed
        )
    return texts


def test_every_quick_run_wsdl(quick_run_texts):
    assert len(quick_run_texts) > 100
    for label, text in quick_run_texts:
        assert_same_generation(read_wsdl_text(text), label)


def test_every_golden_wsdl():
    names = sorted(os.listdir(_GOLDEN_DIR))
    assert len(names) == 7
    for name in names:
        with open(os.path.join(_GOLDEN_DIR, name), encoding="utf-8") as handle:
            assert_same_generation(read_wsdl_text(handle.read()), name)


def test_every_fuzz_smoke_mutant_that_reads():
    """The mutants of ``fuzz --quick --sample 2 --seed 7``."""
    config = FuzzCampaignConfig(
        base=_quick_config(), seed=7, sample_per_server=2,
        mutation_kinds=tuple(MutationKind), intensities=(0.3, 0.8),
    )
    campaign = FuzzCampaign(config)
    mutator = WsdlMutator(config.seed)
    limits = GuardLimits(deadline_seconds=None)
    mutants = read = 0
    for server_id in config.base.server_ids:
        container = container_for(server_id)
        container.deploy_corpus(campaign.corpus_for(server_id))
        for record in campaign._select(container.deployed):
            for kind in config.mutation_kinds:
                for intensity in config.intensities:
                    mutant = mutator.mutate(
                        record.wsdl_text, kind, intensity,
                        server_id, record.service.name, 0,
                    )
                    mutants += 1
                    verdict = campaign._read(mutant, limits)
                    if verdict.ok:
                        read += 1
                        assert_same_generation(verdict.value, repr(mutant))
    assert mutants > read > 0


# -- hypothesis-built schema models ------------------------------------------

_TNS = "urn:svc"
_OTHER_NS = "urn:other"
#: Few names, so refs resolve or dangle, types cycle and attributes repeat.
_TYPE_NAMES = ("Item", "Node", "Wrapper")

_type_refs = st.sampled_from(
    [QName(XSD_NS, "string"), QName(XSD_NS, "int")]
    + [QName(_TNS, name) for name in _TYPE_NAMES]
)
_element_refs = st.sampled_from(
    [QName(XSD_NS, "schema"), QName(XSD_NS, "lang"), QName(_OTHER_NS, "Item"),
     QName("urn:missing", "gone")]
    + [QName(_TNS, name) for name in _TYPE_NAMES + ("missing",)]
)
_particles = st.one_of(
    st.builds(
        ElementParticle,
        name=st.sampled_from(("value", "message", "items")),
        type_name=_type_refs,
        max_occurs=st.sampled_from((1, None)),
        nillable=st.booleans(),
    ),
    st.builds(RefParticle, ref=_element_refs),
    st.builds(
        AnyParticle,
        process_contents=st.sampled_from(("lax", "strict", "skip")),
    ),
)
_attributes = st.builds(
    AttributeDecl,
    name=st.sampled_from((None, "id", "lang", "order")),
    type_name=st.sampled_from(
        (None, QName(XSD_NS, "ID"), QName(XSD_NS, "NOTATION"),
         QName(XSD_NS, "string"), QName(_TNS, "ID"))
    ),
)
_constraints = st.builds(
    IdentityConstraint,
    kind=st.sampled_from(("key", "keyref", "unique")),
    name=st.just("constraint"),
    selector=st.just("."),
)


def _complex_types(names):
    return st.builds(
        ComplexType,
        name=names,
        particles=st.lists(_particles, max_size=4),
        attributes=st.lists(_attributes, max_size=4),
        mixed=st.booleans(),
        constraints=st.lists(_constraints, max_size=2),
    )


_elements = st.builds(
    ElementDecl,
    name=st.sampled_from(_TYPE_NAMES),
    type_name=st.one_of(st.none(), _type_refs),
    inline_type=st.one_of(st.none(), _complex_types(st.none())),
)
_schemas = st.builds(
    Schema,
    target_namespace=st.sampled_from((_TNS, _OTHER_NS)),
    imports=st.lists(
        st.builds(
            SchemaImport,
            namespace=st.sampled_from((_OTHER_NS, XSD_NS)),
            location=st.sampled_from((None, "other.xsd")),
        ),
        max_size=2,
    ),
    elements=st.lists(_elements, max_size=3),
    complex_types=st.lists(
        _complex_types(st.sampled_from(_TYPE_NAMES + ("DataSet",))),
        max_size=3,
    ),
)
_documents = st.builds(
    WsdlDocument,
    name=st.just("Svc"),
    target_namespace=st.just(_TNS),
    schemas=st.lists(_schemas, max_size=2),
    messages=st.just([WsdlMessage("in", "parameters", QName(_TNS, "Wrapper"))]),
    operations=st.sampled_from(([], [SoapOperation("echo", "in", "out")])),
    extension_markers=st.sampled_from(((), ("jaxws-bindings",))),
    schema_prefix=st.sampled_from(("xsd", "s")),
)


@given(document=_documents)
@settings(max_examples=300, deadline=None)
def test_hypothesis_schema_models(document):
    assert_same_generation(document, "hypothesis")


def test_one_model_holds_every_fact_kind():
    """A hand-built model with each construct: every fact kind is found."""
    wrapper = ElementDecl(
        "Wrapper",
        inline_type=ComplexType(particles=[
            ElementParticle("value", QName(_TNS, "Item")),
            RefParticle(QName(XSD_NS, "schema")),
            RefParticle(QName(_TNS, "missing")),
            AnyParticle(process_contents="lax"),
            AnyParticle(process_contents="strict"),
        ]),
    )
    item = ComplexType(
        name="Item",
        particles=[RefParticle(QName(_TNS, "Wrapper"))],
        attributes=[
            AttributeDecl("order", QName(XSD_NS, "ID")),
            AttributeDecl("order", QName(XSD_NS, "string")),
            AttributeDecl("note", QName(XSD_NS, "NOTATION")),
        ],
        constraints=[IdentityConstraint("keyref", "k", ".")],
    )
    schema = Schema(
        target_namespace=_TNS,
        imports=[SchemaImport(_OTHER_NS)],
        elements=[wrapper],
        complex_types=[item],
    )
    document = WsdlDocument(name="Svc", target_namespace=_TNS, schemas=[schema])
    facts = schema_facts(document)
    assert [fact.kind for fact in facts.findings] == [
        IMPORT_WITHOUT_LOCATION,
        DUPLICATE_ATTRIBUTE, NOTATION_ATTRIBUTE, KEYREF,
        XSD_NAMESPACE_REF, DANGLING_REF, LAX_WILDCARD,
    ]
    assert facts.id_attribute and facts.reference_cycle
    assert_same_generation(document, "every fact kind")


# -- hypothesis-built bundles ------------------------------------------------

#: Case variants of each other, builtins, unit names and strangers, so
#: references resolve in every scope, only under VB folding, or nowhere.
_SYMBOLS = (
    "value", "Value", "VALUE", "input", "Input", "String", "string",
    "Object", "object", "Bean", "bean", "Stub", "XMLGregorianCalendar",
    "DataSet", "std::string", "soap", "ToNullableArray", "faultDetail",
)
_units = st.builds(
    CodeUnit,
    name=st.sampled_from(("Bean", "bean", "Stub", "Helper")),
    kind=st.sampled_from(tuple(UnitKind)),
    language=st.just("java"),
    fields=st.lists(
        st.builds(
            FieldDecl, name=st.sampled_from(_SYMBOLS),
            type_text=st.just("String"), raw_type=st.booleans(),
        ),
        max_size=4,
    ),
    methods=st.lists(
        st.builds(
            MethodDecl,
            name=st.sampled_from(_SYMBOLS),
            params=st.lists(
                st.builds(
                    ParamDecl, name=st.sampled_from(_SYMBOLS),
                    type_text=st.just("int"),
                ),
                max_size=2,
            ).map(tuple),
            references=st.lists(st.sampled_from(_SYMBOLS), max_size=4).map(tuple),
        ),
        max_size=3,
    ),
    enum_constants=st.lists(st.sampled_from(("A", "a", "B")), max_size=3),
    flags=st.sets(st.just("crash-compiler")),
)
_bundles = st.builds(
    ArtifactBundle,
    tool=st.just("tool"),
    service=st.just("Svc"),
    units=st.lists(_units, max_size=4),
)


def _vb_only_resolves(reference):
    unit = CodeUnit(
        "Bean", UnitKind.BEAN, "vb", fields=[FieldDecl("Value", "String")],
        methods=[MethodDecl("Get", params=(ParamDecl("Input", "int"),),
                            references=(reference,))],
    )
    return ArtifactBundle(tool="tool", service="Svc", units=[unit])


@given(bundle=_bundles)
@example(bundle=_vb_only_resolves("value"))
@example(bundle=_vb_only_resolves("input"))
@example(bundle=_vb_only_resolves("STRING"))
@settings(max_examples=300, deadline=None)
def test_hypothesis_bundles(bundle):
    for compiler in COMPILERS:
        expected = reference_compile(compiler, bundle).diagnostics
        assert compiler.compile(bundle).diagnostics == expected, compiler.name
