"""Microsoft WCF .NET 4.0 server subsystem (IIS 8.0 Express)."""

from __future__ import annotations

from repro.frameworks.base import ServerFramework
from repro.frameworks.server.common import properties_to_particles
from repro.typesystem.model import CtorVisibility, Trait
from repro.xmlcore import QName, XML_NS, XSD_NS
from repro.xsd.model import (
    AnyParticle,
    AttributeDecl,
    ComplexType,
    IdentityConstraint,
    RefParticle,
)


class WcfNetServer(ServerFramework):
    """WCF's serializer and the DataSet-era WSDL idioms.

    * Binds concrete, non-generic classes, structs and enums with public
      default constructors.
    * DataSet-style types are described with the infamous
      ``<s:element ref="s:schema"/><s:any/>`` pattern (schema shipped in
      the instance) — the source of the 80 WS-I failures, 13 of which
      additionally carry keyref constraints and one of which is
      self-recursive.
    * The ``DataSet`` family uses ``xs:any`` wildcards (lax, unbounded),
      mixed for the two Table-collection types.
    * A handful of globalization types reference ``xml:lang`` without
      importing the XML namespace schema.
    """

    name = "Microsoft WCF .NET"
    version = "4.0.30319.17929"
    language = "C#"
    catalog = "dotnet"
    schema_prefix = "s"
    extension_markers = ("wcf-metadata",)

    def can_bind(self, type_info):
        return (
            type_info.is_concrete_class
            and not type_info.is_generic
            and type_info.ctor is CtorVisibility.PUBLIC
        )

    def rejection_reason(self, type_info):
        if type_info.is_generic:
            return "open generic types cannot be exposed as data contracts"
        if not type_info.is_concrete_class:
            return f"{type_info.kind.value} types cannot be serialized"
        return "no public parameterless constructor"

    def _emit_parameter_type(self, type_info, schema):
        tns = schema.target_namespace
        if type_info.has_trait(Trait.DATASET_SCHEMA_REF):
            particles = [
                RefParticle(ref=QName(XSD_NS, "schema")),
                AnyParticle(),
            ]
            if type_info.has_trait(Trait.RECURSIVE_SCHEMA_REF):
                # Self-recursive: the row set references the request
                # wrapper, whose sequence references this type again.
                particles.append(
                    RefParticle(ref=QName(tns, f"echo{type_info.name}"))
                )
            constraints = []
            if type_info.has_trait(Trait.SCHEMA_KEYREF):
                constraints.append(
                    IdentityConstraint(
                        kind="keyref",
                        name=f"{type_info.name}RowKeyRef",
                        selector=".//row",
                        fields=("@rowID",),
                        refer=QName(tns, f"{type_info.name}Key"),
                    )
                )
            attributes = []
            if type_info.has_trait(Trait.SELF_WARN):
                attributes.append(
                    AttributeDecl("rowOrder", QName(XSD_NS, "ID"))
                )
            schema.complex_types.append(
                ComplexType(
                    name=type_info.name,
                    particles=particles,
                    constraints=constraints,
                    attributes=attributes,
                )
            )
            return QName(tns, type_info.name)
        if type_info.has_trait(Trait.ANY_CONTENT):
            particles = properties_to_particles(type_info)
            particles.append(
                AnyParticle(
                    namespace="##any",
                    process_contents="lax",
                    min_occurs=0,
                    max_occurs=None,
                )
            )
            schema.complex_types.append(
                ComplexType(
                    name=type_info.name,
                    particles=particles,
                    mixed=type_info.has_trait(Trait.MIXED_CONTENT),
                )
            )
            return QName(tns, type_info.name)
        if type_info.has_trait(Trait.XML_LANG_ATTR):
            schema.complex_types.append(
                ComplexType(
                    name=type_info.name,
                    particles=properties_to_particles(type_info),
                    attributes=[AttributeDecl(ref=QName(XML_NS, "lang"))],
                )
            )
            return QName(tns, type_info.name)
        return super()._emit_parameter_type(type_info, schema)
