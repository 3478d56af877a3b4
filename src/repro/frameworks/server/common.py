"""Shared document/literal-wrapped WSDL emission for server frameworks."""

from __future__ import annotations

from repro.services.model import echo_operation_name
from repro.typesystem.model import TypeKind
from repro.wsdl.model import SoapOperation, WsdlDocument, WsdlMessage
from repro.xmlcore import QName, XSD_NS
from repro.xsd.builtins import xsd_name_for
from repro.xsd.model import (
    ComplexType,
    ElementDecl,
    ElementParticle,
    Schema,
    SimpleTypeDecl,
)


def emit_default_parameter_type(type_info, schema):
    """Describe ``type_info`` in ``schema`` the vanilla JAXB/WCF way.

    Enums become named simple types with enumeration facets; everything
    else becomes a named complex type whose sequence mirrors the bean
    properties.  Returns the QName clients use to reference the type.
    """
    tns = schema.target_namespace
    if type_info.kind is TypeKind.ENUM:
        schema.simple_types.append(
            SimpleTypeDecl(
                name=type_info.name,
                base=QName(XSD_NS, "string"),
                enumerations=type_info.enum_values,
            )
        )
        return QName(tns, type_info.name)
    schema.complex_types.append(
        ComplexType(name=type_info.name, particles=properties_to_particles(type_info))
    )
    return QName(tns, type_info.name)


def properties_to_particles(type_info):
    """Map bean properties to schema element particles."""
    particles = []
    for prop in type_info.properties:
        particles.append(
            ElementParticle(
                name=prop.name,
                type_name=xsd_name_for(prop.value_type),
                min_occurs=0 if prop.is_array else 1,
                max_occurs=None if prop.is_array else 1,
                nillable=prop.nillable_value,
            )
        )
    return particles


def build_echo_wsdl(
    service,
    endpoint_url,
    schema_prefix="xsd",
    extension_markers=(),
    type_emitter=emit_default_parameter_type,
    member_types=None,
):
    """Build the document/literal-wrapped echo WSDL of ``service``.

    One wrapper element pair, message pair and portType operation per
    member type, all in one schema.  The member types are
    ``service.parameter_types`` unless ``member_types`` is given: a
    simple service is the one-member case, and no member types give an
    empty portType.  ``type_emitter`` is the hook where server
    frameworks inject their type-description quirks; it must add
    declarations to the schema and return the QName for the parameter
    type.
    """
    if member_types is None:
        member_types = service.parameter_types
    tns = service.target_namespace
    schema = Schema(target_namespace=tns)
    messages = []
    operations = []
    for type_info in member_types:
        type_ref = type_emitter(type_info, schema)
        operation = echo_operation_name(type_info)
        response = f"{operation}Response"
        for element, particle in ((operation, "input"), (response, "return")):
            schema.elements.append(
                ElementDecl(
                    name=element,
                    inline_type=ComplexType(
                        particles=[ElementParticle(name=particle, type_name=type_ref)]
                    ),
                )
            )
            messages.append(WsdlMessage(element, "parameters", QName(tns, element)))
        operations.append(
            SoapOperation(
                name=operation,
                input_message=operation,
                output_message=response,
                soap_action=f"{tns}/{operation}",
            )
        )
    return WsdlDocument(
        name=service.name,
        target_namespace=tns,
        schemas=[schema],
        messages=messages,
        operations=operations,
        service_name=service.name,
        port_name=f"{service.name}Port",
        endpoint_url=endpoint_url,
        extension_markers=tuple(extension_markers),
        schema_prefix=schema_prefix,
    )
