"""Unit tests for composite (higher-complexity) services."""

import pytest

from repro.appservers import GlassFish, IisExpress, JBossAs
from repro.core.pipeline import run_client_test
from repro.frameworks.registry import all_client_frameworks
from repro.runtime import run_full_lifecycle
from repro.services import (
    CompositeServiceDefinition,
    compose_corpus,
    generate_corpus,
)
from repro.typesystem import (
    Catalog,
    CtorVisibility,
    Language,
    Property,
    SimpleType,
    Trait,
    TypeInfo,
    TypeKind,
)
from repro.wsdl import read_wsdl_text
from repro.wsdl.validator import is_structurally_valid
from repro.wsi import check_document


def _entry(name, language=Language.JAVA, traits=(), **kwargs):
    return TypeInfo(
        language, "pkg", name,
        properties=(Property("size", SimpleType.INT),),
        traits=frozenset(traits), **kwargs,
    )


def _composite(*names, language=Language.JAVA):
    return CompositeServiceDefinition(
        tuple(_entry(name, language) for name in names)
    )


class TestDefinition:
    def test_naming(self):
        service = _composite("Alpha", "Beta")
        assert service.name == "Compositepkg_Alphax2Service"
        assert service.operation_names == ("echoAlpha", "echoBeta")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeServiceDefinition(())

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError):
            _composite("Alpha", "Alpha")

    def test_compose_corpus_groups(self):
        catalog = Catalog(
            Language.JAVA, [_entry(f"T{i}") for i in range(10)]
        )
        composites = compose_corpus(catalog, group_size=3)
        assert len(composites) == 3
        assert all(len(c.parameter_types) == 3 for c in composites)

    def test_compose_corpus_limit(self):
        catalog = Catalog(Language.JAVA, [_entry(f"T{i}") for i in range(30)])
        assert len(compose_corpus(catalog, group_size=2, limit=4)) == 4

    def test_compose_corpus_bad_group_size(self):
        catalog = Catalog(Language.JAVA, [_entry("A")])
        with pytest.raises(ValueError):
            compose_corpus(catalog, group_size=0)


class TestDeployment:
    def test_multi_operation_wsdl(self):
        record = GlassFish().deploy(_composite("Alpha", "Beta", "Gamma"))
        assert record.accepted
        document = read_wsdl_text(record.wsdl_text)
        assert [op.name for op in document.operations] == [
            "echoAlpha", "echoBeta", "echoGamma",
        ]
        assert len(document.messages) == 6
        assert is_structurally_valid(document)
        assert check_document(document).clean

    def test_any_unbindable_member_refuses_deployment(self):
        generic = _entry("Box", is_generic=True)
        service = CompositeServiceDefinition((_entry("Alpha"), generic))
        record = GlassFish().deploy(service)
        assert not record.accepted
        assert "generic" in record.reason

    def test_jbossws_async_member_swallows_interface(self):
        future = TypeInfo(
            Language.JAVA, "pkg", "Future",
            kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE,
            traits=frozenset({Trait.ASYNC_HANDLE}),
        )
        service = CompositeServiceDefinition((_entry("Alpha"), future))
        record = JBossAs().deploy(service)
        assert record.accepted
        document = read_wsdl_text(record.wsdl_text)
        assert document.operations == []

    def test_metro_refuses_async_member(self):
        future = TypeInfo(
            Language.JAVA, "pkg", "Future",
            kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE,
            traits=frozenset({Trait.ASYNC_HANDLE}),
        )
        service = CompositeServiceDefinition((_entry("Alpha"), future))
        assert not GlassFish().deploy(service).accepted

    def test_member_quirks_survive_in_composite(self):
        sdf = TypeInfo(
            Language.JAVA, "java.text", "SimpleDateFormat",
            properties=(Property("pattern"),),
            traits=frozenset({Trait.LOCALE_FORMAT}),
        )
        service = CompositeServiceDefinition((_entry("Alpha"), sdf))
        record = GlassFish().deploy(service)
        document = read_wsdl_text(record.wsdl_text)
        report = check_document(document)
        assert not report.conformant  # the duplicate attribute came along


class TestClientsOnComposites:
    @pytest.fixture()
    def composite_wsdl(self):
        record = GlassFish().deploy(_composite("Alpha", "Beta", "Gamma"))
        return read_wsdl_text(record.wsdl_text)

    @pytest.mark.parametrize("client_id", sorted(all_client_frameworks()))
    def test_all_clients_generate_all_operations(self, composite_wsdl, client_id):
        client = all_client_frameworks()[client_id]
        result = client.generate(composite_wsdl)
        assert result.succeeded
        names = [m.name for m in result.bundle.operation_methods]
        assert names == ["echoAlpha", "echoBeta", "echoGamma"]
        if client.requires_compilation:
            assert client.compiler.compile(result.bundle).succeeded

    def test_composite_with_pathological_member_fails_for_dotnet(self):
        sdf = TypeInfo(
            Language.JAVA, "java.text", "SimpleDateFormat",
            properties=(Property("pattern"),),
            traits=frozenset({Trait.LOCALE_FORMAT}),
        )
        service = CompositeServiceDefinition((_entry("Alpha"), sdf))
        record = GlassFish().deploy(service)
        document = read_wsdl_text(record.wsdl_text)
        clients = all_client_frameworks()
        assert not clients["dotnet-cs"].generate(document).succeeded
        assert clients["metro"].generate(document).succeeded

    def test_lifecycle_on_composite(self):
        record = GlassFish().deploy(_composite("Alpha", "Beta"))
        client = all_client_frameworks()["suds"]
        outcome = run_full_lifecycle(record, client, client_id="suds")
        assert outcome.reached_execution

    def test_wcf_composites(self):
        service = _composite("Alpha", "Beta", language=Language.CSHARP)
        record = IisExpress().deploy(service)
        assert record.accepted
        document = read_wsdl_text(record.wsdl_text)
        assert document.schema_prefix == "s"
        assert len(document.operations) == 2


def _error_rate(records):
    """Share of (service, client) tests with at least one error."""
    clients = all_client_frameworks().items()
    errors = [
        run_client_test("metro", client_id, client, document).has_error
        for document in [read_wsdl_text(record.wsdl_text) for record in records]
        for client_id, client in clients
    ]
    return sum(errors) / len(errors)


class TestComplexity:
    """The paper's §V future work: do richer interfaces surface more
    interoperability errors?  A composite fails if any member type trips
    a tool, so its error rate rises with group size."""

    def test_four_types_per_service_err_at_least_as_often_as_one(
        self, quick_java_catalog
    ):
        simple = GlassFish()
        simple.deploy_corpus(generate_corpus(quick_java_catalog))
        composite = GlassFish()
        for service in compose_corpus(quick_java_catalog, group_size=4):
            composite.deploy(service)
        assert _error_rate(composite.deployed) >= _error_rate(simple.deployed)
