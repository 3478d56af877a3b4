"""Unit tests for the three server framework models."""

import pytest

from repro.frameworks.server import JBossWsCxfServer, MetroServer, WcfNetServer
from repro.services import ServiceDefinition
from repro.typesystem import (
    CtorVisibility,
    Language,
    Property,
    SimpleType,
    Trait,
    TypeInfo,
    TypeKind,
)
from repro.wsi import check_document
from repro.xmlcore import QName, XML_NS, XSD_NS
from repro.xmlcore.names import WSA_NS
from repro.xsd import AnyParticle, RefParticle

URL = "http://localhost:8080/svc"


def _plain(language=Language.JAVA, **kwargs):
    return TypeInfo(language, "pkg", "Plain",
                    properties=(Property("size", SimpleType.INT),), **kwargs)


def _wsdl(server, type_info):
    service = ServiceDefinition(type_info)
    reason = server.refusal(service)
    assert not reason, reason
    return server.generate_wsdl(service, URL)


class TestBindingRules:
    @pytest.mark.parametrize("server_class", [MetroServer, JBossWsCxfServer, WcfNetServer])
    def test_plain_class_binds(self, server_class):
        assert server_class().can_bind(_plain())

    @pytest.mark.parametrize("server_class", [MetroServer, JBossWsCxfServer, WcfNetServer])
    @pytest.mark.parametrize(
        "kind", [TypeKind.INTERFACE, TypeKind.ABSTRACT_CLASS, TypeKind.ANNOTATION]
    )
    def test_non_concrete_kinds_rejected(self, server_class, kind):
        entry = _plain(kind=kind)
        assert not server_class().can_bind(entry)

    @pytest.mark.parametrize("server_class", [MetroServer, JBossWsCxfServer, WcfNetServer])
    def test_generic_rejected(self, server_class):
        assert not server_class().can_bind(_plain(is_generic=True))

    def test_metro_tolerates_protected_ctor(self):
        entry = _plain(ctor=CtorVisibility.PROTECTED)
        assert MetroServer().can_bind(entry)
        assert not JBossWsCxfServer().can_bind(entry)
        assert not WcfNetServer().can_bind(entry)

    def test_async_handle_split_decision(self):
        future = TypeInfo(
            Language.JAVA, "java.util.concurrent", "Future",
            kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE, is_generic=True,
            traits=frozenset({Trait.ASYNC_HANDLE}),
        )
        assert not MetroServer().can_bind(future)
        assert JBossWsCxfServer().can_bind(future)

    def test_metro_refusal_reason_mentions_async(self):
        future = TypeInfo(
            Language.JAVA, "p", "Future", kind=TypeKind.INTERFACE,
            ctor=CtorVisibility.NONE, traits=frozenset({Trait.ASYNC_HANDLE}),
        )
        reason = MetroServer().refusal(ServiceDefinition(future))
        assert "refused deployment" in reason


class TestCommonEmission:
    def test_document_literal_wrapped_shape(self):
        document = _wsdl(MetroServer(), _plain())
        assert len(document.operations) == 1
        operation = document.operations[0]
        assert operation.name == "echoPlain"
        wrapper = document.global_element(
            QName(document.target_namespace, "echoPlain")
        )
        assert wrapper.inline_type.particles[0].name == "input"
        response = document.global_element(
            QName(document.target_namespace, "echoPlainResponse")
        )
        assert response.inline_type.particles[0].name == "return"

    def test_named_bean_type_emitted(self):
        document = _wsdl(MetroServer(), _plain())
        bean = document.schemas[0].complex_type("Plain")
        assert bean is not None
        assert bean.particles[0].name == "size"
        assert bean.particles[0].type_name == QName(XSD_NS, "int")

    def test_array_property_unbounded(self):
        entry = TypeInfo(
            Language.JAVA, "pkg", "Arr",
            properties=(Property("items", SimpleType.STRING, is_array=True),),
        )
        document = _wsdl(MetroServer(), entry)
        particle = document.schemas[0].complex_type("Arr").particles[0]
        assert particle.max_occurs is None
        assert particle.min_occurs == 0

    def test_enum_emitted_as_simple_type(self):
        entry = TypeInfo(
            Language.JAVA, "pkg", "Status", kind=TypeKind.ENUM,
            enum_values=("Open", "Closed"),
        )
        document = _wsdl(JBossWsCxfServer(), entry)
        simple = document.schemas[0].simple_type("Status")
        assert simple.enumerations == ("Open", "Closed")

    def test_clean_service_is_wsi_conformant(self):
        report = check_document(_wsdl(MetroServer(), _plain()))
        assert report.clean

    def test_java_servers_mark_jaxws_extension(self):
        assert "jaxws-bindings" in _wsdl(MetroServer(), _plain()).extension_markers
        assert "jaxws-bindings" in _wsdl(JBossWsCxfServer(), _plain()).extension_markers

    def test_wcf_uses_s_prefix_and_own_marker(self):
        document = _wsdl(WcfNetServer(), _plain(language=Language.CSHARP))
        assert document.schema_prefix == "s"
        assert "wcf-metadata" in document.extension_markers


class TestMetroQuirks:
    def test_epr_emits_locationless_import(self):
        entry = TypeInfo(
            Language.JAVA, "javax.xml.ws.wsaddressing", "W3CEndpointReference",
            properties=(Property("address", SimpleType.URI),),
            traits=frozenset({Trait.WS_ADDRESSING_EPR}),
        )
        document = _wsdl(MetroServer(), entry)
        imports = document.schemas[0].imports
        assert imports and imports[0].namespace == WSA_NS
        assert imports[0].location is None
        assert not check_document(document).conformant

    def test_sdf_emits_duplicate_attribute(self):
        entry = TypeInfo(
            Language.JAVA, "java.text", "SimpleDateFormat",
            properties=(Property("pattern"),),
            traits=frozenset({Trait.LOCALE_FORMAT}),
        )
        document = _wsdl(MetroServer(), entry)
        attributes = document.schemas[0].complex_type("SimpleDateFormat").attributes
        assert [a.name for a in attributes] == ["lenient", "lenient"]


class TestJBossWsQuirks:
    def test_async_handle_yields_empty_port_type(self):
        future = TypeInfo(
            Language.JAVA, "java.util.concurrent", "Future",
            kind=TypeKind.INTERFACE, ctor=CtorVisibility.NONE,
            traits=frozenset({Trait.ASYNC_HANDLE}),
        )
        document = _wsdl(JBossWsCxfServer(), future)
        assert document.operations == []
        assert document.messages == []
        report = check_document(document)
        assert report.conformant and report.advisories

    def test_epr_emits_dangling_reference(self):
        entry = TypeInfo(
            Language.JAVA, "javax.xml.ws.wsaddressing", "W3CEndpointReference",
            traits=frozenset({Trait.WS_ADDRESSING_EPR}),
        )
        document = _wsdl(JBossWsCxfServer(), entry)
        bean = document.schemas[0].complex_type("W3CEndpointReference")
        refs = [p for p in bean.particles if isinstance(p, RefParticle)]
        assert refs and refs[0].ref.namespace == WSA_NS
        assert not document.schemas[0].imports

    def test_sdf_emits_notation_attribute(self):
        entry = TypeInfo(
            Language.JAVA, "java.text", "SimpleDateFormat",
            traits=frozenset({Trait.LOCALE_FORMAT}),
        )
        document = _wsdl(JBossWsCxfServer(), entry)
        attributes = document.schemas[0].complex_type("SimpleDateFormat").attributes
        assert attributes[0].type_name == QName(XSD_NS, "NOTATION")


class TestWcfQuirks:
    def _entry(self, name="Rows", traits=()):
        return TypeInfo(
            Language.CSHARP, "System.Data", name,
            properties=(Property("TableName"),),
            traits=frozenset(traits),
        )

    def test_dataset_schema_ref_pattern(self):
        document = _wsdl(
            WcfNetServer(), self._entry(traits={Trait.DATASET_SCHEMA_REF})
        )
        bean = document.schemas[0].complex_type("Rows")
        assert isinstance(bean.particles[0], RefParticle)
        assert bean.particles[0].ref == QName(XSD_NS, "schema")
        assert isinstance(bean.particles[1], AnyParticle)
        assert not check_document(document).conformant

    def test_keyref_constraint_added(self):
        document = _wsdl(
            WcfNetServer(),
            self._entry(traits={Trait.DATASET_SCHEMA_REF, Trait.SCHEMA_KEYREF}),
        )
        bean = document.schemas[0].complex_type("Rows")
        assert bean.constraints[0].kind == "keyref"

    def test_recursive_ref_creates_cycle(self):
        document = _wsdl(
            WcfNetServer(),
            self._entry(traits={Trait.DATASET_SCHEMA_REF, Trait.RECURSIVE_SCHEMA_REF}),
        )
        bean = document.schemas[0].complex_type("Rows")
        tns = document.target_namespace
        assert any(
            isinstance(p, RefParticle) and p.ref == QName(tns, "echoRows")
            for p in bean.particles
        )

    def test_self_warn_emits_id_attribute(self):
        document = _wsdl(
            WcfNetServer(),
            self._entry(traits={Trait.DATASET_SCHEMA_REF, Trait.SELF_WARN}),
        )
        bean = document.schemas[0].complex_type("Rows")
        assert bean.attributes[0].type_name == QName(XSD_NS, "ID")

    def test_any_content_mixed_for_table_types(self):
        document = _wsdl(
            WcfNetServer(),
            self._entry(traits={Trait.ANY_CONTENT, Trait.MIXED_CONTENT}),
        )
        bean = document.schemas[0].complex_type("Rows")
        assert bean.mixed
        wildcard = [p for p in bean.particles if isinstance(p, AnyParticle)]
        assert wildcard and wildcard[0].process_contents == "lax"
        assert check_document(document).conformant

    def test_xml_lang_reference(self):
        document = _wsdl(WcfNetServer(), self._entry(traits={Trait.XML_LANG_ATTR}))
        bean = document.schemas[0].complex_type("Rows")
        assert bean.attributes[0].ref == QName(XML_NS, "lang")
        assert not check_document(document).conformant
