"""Oracle Metro 2.3 server subsystem (GlassFish 4.0)."""

from __future__ import annotations

from repro.frameworks.base import ServerFramework
from repro.frameworks.server.common import properties_to_particles
from repro.typesystem.model import CtorVisibility, Trait
from repro.xmlcore import QName, XSD_NS
from repro.xmlcore.names import WSA_NS
from repro.xsd.model import (
    AttributeDecl,
    ComplexType,
    ElementParticle,
    SchemaImport,
)


class MetroServer(ServerFramework):
    """Metro's JAXB binder plus its documented WSDL quirks.

    * Binds concrete, non-generic classes and enums; tolerates protected
      default constructors (reflective instantiation).
    * Refuses to deploy the async-handle interfaces — the behaviour the
      paper praises GlassFish for (§IV.B.1).
    * For ``W3CEndpointReference`` it emits an ``xsd:import`` of the
      WS-Addressing namespace *without* a schemaLocation.
    * For ``SimpleDateFormat`` it renders the pattern attribute twice
      (plain and localized), producing a duplicate attribute declaration.
    """

    name = "Oracle Metro"
    version = "2.3"
    language = "Java"
    catalog = "java"
    extension_markers = ("jaxws-bindings",)

    def can_bind(self, type_info):
        return (
            type_info.is_concrete_class
            and not type_info.is_generic
            and type_info.ctor in (CtorVisibility.PUBLIC, CtorVisibility.PROTECTED)
        )

    def rejection_reason(self, type_info):
        if type_info.has_trait(Trait.ASYNC_HANDLE):
            return (
                "refused deployment: asynchronous invocation handles expose "
                "no operations"
            )
        if type_info.is_generic:
            return "generic types cannot be bound by JAXB"
        if not type_info.is_concrete_class:
            return f"{type_info.kind.value} types cannot be instantiated by JAXB"
        return "no accessible default constructor"

    def _emit_parameter_type(self, type_info, schema):
        if type_info.has_trait(Trait.WS_ADDRESSING_EPR):
            schema.imports.append(SchemaImport(WSA_NS, location=None))
            particles = properties_to_particles(type_info)
            particles.append(
                ElementParticle(
                    name="endpointReference",
                    type_name=QName(WSA_NS, "EndpointReferenceType"),
                )
            )
            schema.complex_types.append(
                ComplexType(name=type_info.name, particles=particles)
            )
            return QName(schema.target_namespace, type_info.name)
        if type_info.has_trait(Trait.LOCALE_FORMAT):
            duplicate = AttributeDecl("lenient", QName(XSD_NS, "boolean"))
            schema.complex_types.append(
                ComplexType(
                    name=type_info.name,
                    particles=properties_to_particles(type_info),
                    attributes=[duplicate, duplicate],
                )
            )
            return QName(schema.target_namespace, type_info.name)
        return super()._emit_parameter_type(type_info, schema)
