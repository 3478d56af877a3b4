"""JBossWS CXF 4.2.3 server subsystem (JBoss AS 7.2)."""

from __future__ import annotations

from repro.frameworks.base import ServerFramework
from repro.frameworks.server.common import (
    build_echo_wsdl,
    properties_to_particles,
)
from repro.typesystem.model import CtorVisibility, Trait
from repro.xmlcore import QName, XSD_NS
from repro.xmlcore.names import WSA_NS
from repro.xsd.model import AttributeDecl, ComplexType, RefParticle


class JBossWsCxfServer(ServerFramework):
    """JBossWS-CXF's binder and its documented quirks.

    * Stricter than Metro about constructors (public only), so it
      deploys fewer of the same catalog (2,248 vs 2,489).
    * *Accepts* the async-handle interfaces and publishes WSDLs whose
      portType declares **zero operations** — the unusable-but-WS-I-
      compliant documents of §IV.B.1.
    * For ``W3CEndpointReference`` it emits a dangling element reference
      into the WS-Addressing namespace (no import at all).
    * For ``SimpleDateFormat`` it types the display-pattern attribute as
      ``xsd:NOTATION`` — invalid schema that only some tools notice.
    """

    name = "JBossWS CXF"
    version = "4.2.3"
    language = "Java"
    catalog = "java"
    extension_markers = ("jaxws-bindings",)

    def can_bind(self, type_info):
        if type_info.has_trait(Trait.ASYNC_HANDLE):
            return True
        return (
            type_info.is_concrete_class
            and not type_info.is_generic
            and type_info.ctor is CtorVisibility.PUBLIC
        )

    def rejection_reason(self, type_info):
        if type_info.is_generic:
            return "generic types cannot be bound by JAXB"
        if not type_info.is_concrete_class:
            return f"{type_info.kind.value} types cannot be instantiated by JAXB"
        return "default constructor is not public"

    def generate_wsdl(self, service, endpoint_url):
        if any(t.has_trait(Trait.ASYNC_HANDLE) for t in service.parameter_types):
            # The async-handle quirk swallows the whole interface: the
            # published portType is empty even for composite services.
            return build_echo_wsdl(
                service,
                endpoint_url,
                self.schema_prefix,
                self.extension_markers,
                member_types=(),
            )
        return super().generate_wsdl(service, endpoint_url)

    def _emit_parameter_type(self, type_info, schema):
        if type_info.has_trait(Trait.WS_ADDRESSING_EPR):
            particles = properties_to_particles(type_info)
            particles.append(RefParticle(ref=QName(WSA_NS, "EndpointReference")))
            schema.complex_types.append(
                ComplexType(name=type_info.name, particles=particles)
            )
            return QName(schema.target_namespace, type_info.name)
        if type_info.has_trait(Trait.LOCALE_FORMAT):
            schema.complex_types.append(
                ComplexType(
                    name=type_info.name,
                    particles=properties_to_particles(type_info),
                    attributes=[
                        AttributeDecl("displayPattern", QName(XSD_NS, "NOTATION"))
                    ],
                )
            )
            return QName(schema.target_namespace, type_info.name)
        return super()._emit_parameter_type(type_info, schema)
