"""Unit tests for application servers and the framework registries."""

import pytest

from repro.appservers import GlassFish, IisExpress, JBossAs, container_for
from repro.data import PAPER_TABLE1, PAPER_TABLE2
from repro.frameworks.registry import (
    CLIENT_IDS,
    SERVER_IDS,
    all_client_frameworks,
    all_server_frameworks,
    client_framework,
    is_same_framework,
    server_framework,
)
from repro.services import ServiceDefinition, generate_corpus
from repro.typesystem import (
    CtorVisibility,
    Language,
    Property,
    TypeInfo,
    TypeKind,
)


def _plain(name="Plain"):
    return TypeInfo(Language.JAVA, "pkg", name, properties=(Property("size"),))


class TestContainers:
    def test_deploy_publishes_wsdl_text(self):
        record = GlassFish().deploy(ServiceDefinition(_plain()))
        assert record.accepted
        assert record.wsdl_text.startswith("<?xml")
        assert record.endpoint_url.endswith("/EchoPkg_PlainService".replace("Pkg", "pkg"))

    def test_wsdl_url_suffix(self):
        record = GlassFish().deploy(ServiceDefinition(_plain()))
        assert record.wsdl_url == record.endpoint_url + "?wsdl"

    def test_refused_deployment_recorded(self):
        iface = TypeInfo(
            Language.JAVA, "pkg", "Iface",
            kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE,
        )
        server = GlassFish()
        record = server.deploy(ServiceDefinition(iface))
        assert not record.accepted
        assert record.reason
        assert record.wsdl_url == ""
        assert server.refused == [record]

    def test_deploy_corpus_partitions(self):
        corpus = generate_corpus(
            type("Cat", (), {"__iter__": lambda self: iter([
                _plain("A"),
                TypeInfo(Language.JAVA, "pkg", "I",
                         kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE),
            ])})()
        )
        server = GlassFish()
        records = server.deploy_corpus(corpus)
        assert len(records) == 2
        assert len(server.deployed) == 1
        assert len(server.refused) == 1

    def test_distinct_ports(self):
        assert GlassFish().port != JBossAs().port != IisExpress().port

    def test_container_for_mapping(self):
        assert isinstance(container_for("metro"), GlassFish)
        assert isinstance(container_for("jbossws"), JBossAs)
        assert isinstance(container_for("wcf"), IisExpress)
        with pytest.raises(KeyError):
            container_for("nope")


class TestRegistry:
    def test_three_servers_eleven_clients(self):
        assert len(SERVER_IDS) == 3
        assert len(CLIENT_IDS) == 11
        assert len(all_server_frameworks()) == 3
        assert len(all_client_frameworks()) == 11
        # Row by row in the paper's order: Table I's languages, Table
        # II's languages and compilation modes.
        servers = all_server_frameworks()
        for (*_, language), server_id in zip(PAPER_TABLE1, SERVER_IDS):
            assert servers[server_id].language == language, server_id
        clients = all_client_frameworks()
        for (*_, language, compiles), client_id in zip(PAPER_TABLE2, CLIENT_IDS):
            assert clients[client_id].language == language, client_id
            assert clients[client_id].requires_compilation == compiles, client_id

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            server_framework("nope")
        with pytest.raises(KeyError):
            client_framework("nope")

    def test_languages_cover_seven(self):
        languages = {c.language for c in all_client_frameworks().values()}
        assert languages == {
            "Java", "C#", "VB .NET", "JScript .NET", "C++", "PHP", "Python"
        }

    def test_same_framework_relation(self):
        assert is_same_framework("metro", "metro")
        assert is_same_framework("jbossws", "jbossws")
        for client_id in ("dotnet-cs", "dotnet-vb", "dotnet-js"):
            assert is_same_framework("wcf", client_id)
        assert not is_same_framework("metro", "axis1")
        assert not is_same_framework("wcf", "gsoap")

    def test_dynamic_platforms_flagged(self):
        clients = all_client_frameworks()
        no_compile = {
            cid for cid, c in clients.items() if not c.requires_compilation
        }
        assert no_compile == {"zend", "suds"}

    def test_compiled_platforms_have_compilers(self):
        for client in all_client_frameworks().values():
            if client.requires_compilation:
                assert client.compiler is not None
