"""Read an ``<xsd:schema>`` element tree back into the schema model.

The reader is deliberately *lenient*: it loads structure (including
dangling references and duplicate attributes) without judging it.
Strictness differs per client framework, so each framework model applies
its own validation over the loaded model — that is exactly where the
paper's interoperability differences come from.
"""

from __future__ import annotations

from repro.xmlcore import QName, XSD_NS
from repro.xsd.errors import SchemaReadError
from repro.xsd.model import (
    AnyParticle,
    AttributeDecl,
    ComplexType,
    ElementDecl,
    ElementParticle,
    IdentityConstraint,
    RefParticle,
    Schema,
    SchemaImport,
    SimpleTypeDecl,
)

_CONSTRAINT_KINDS = ("key", "keyref", "unique")

# Element names, built once rather than per document.
_SCHEMA = QName(XSD_NS, "schema")
_RESTRICTION = QName(XSD_NS, "restriction")
_ENUMERATION = QName(XSD_NS, "enumeration")
_COMPLEX_TYPE = QName(XSD_NS, "complexType")
_SEQUENCE = QName(XSD_NS, "sequence")
_ATTRIBUTE = QName(XSD_NS, "attribute")
_SELECTOR = QName(XSD_NS, "selector")
_FIELD = QName(XSD_NS, "field")
_CONSTRAINTS = tuple((kind, QName(XSD_NS, kind)) for kind in _CONSTRAINT_KINDS)

# Attribute names.
_NAME = QName("name")
_TARGET_NAMESPACE = QName("targetNamespace")
_ELEMENT_FORM_DEFAULT = QName("elementFormDefault")
_NAMESPACE = QName("namespace")
_SCHEMA_LOCATION = QName("schemaLocation")
_BASE = QName("base")
_VALUE = QName("value")
_MIN_OCCURS = QName("minOccurs")
_MAX_OCCURS = QName("maxOccurs")
_TYPE = QName("type")
_NILLABLE = QName("nillable")
_MIXED = QName("mixed")
_REF = QName("ref")
_USE = QName("use")
_PROCESS_CONTENTS = QName("processContents")
_XPATH = QName("xpath")
_REFER = QName("refer")


def read_schema(element):
    """Interpret ``element`` (an ``<xsd:schema>``) as a :class:`Schema`."""
    if element.name != _SCHEMA:
        raise SchemaReadError(f"not a schema element: {element.name.text()}")
    schema = Schema(
        target_namespace=element.get(_TARGET_NAMESPACE),
        element_form_default=element.get(_ELEMENT_FORM_DEFAULT, "unqualified"),
    )
    for child in element.children:
        if child.name.namespace != XSD_NS:
            continue
        local = child.name.local
        if local == "import":
            schema.imports.append(
                SchemaImport(
                    namespace=child.get(_NAMESPACE, ""),
                    location=child.get(_SCHEMA_LOCATION),
                )
            )
        elif local == "element":
            schema.elements.append(_read_element_decl(child))
        elif local == "complexType":
            schema.complex_types.append(_read_complex_type(child))
        elif local == "simpleType":
            schema.simple_types.append(_read_simple_type(child))
    return schema


def _read_simple_type(element):
    name = element.get(_NAME)
    restriction = element.find(_RESTRICTION)
    if restriction is None:
        raise SchemaReadError(f"simple type {name!r} lacks a restriction")
    base = _resolve(restriction, restriction.get(_BASE))
    values = tuple(
        enum_el.get(_VALUE, "")
        for enum_el in restriction.find_all(_ENUMERATION)
    )
    return SimpleTypeDecl(name=name, base=base, enumerations=values)


def _resolve(element, value):
    """Resolve a QName-valued attribute against the element's scope."""
    if value is None:
        return None
    default = None
    if element.nsscope:
        default = element.nsscope.get(None)
    try:
        return element.resolve_qname_value(value, default_namespace=default)
    except KeyError as exc:
        raise SchemaReadError(str(exc)) from exc


def _read_occurs(element):
    raw_min = element.get(_MIN_OCCURS, "1")
    raw_max = element.get(_MAX_OCCURS, "1")
    try:
        minimum = int(raw_min)
        maximum = None if raw_max == "unbounded" else int(raw_max)
    except ValueError as exc:
        raise SchemaReadError(
            f"non-numeric occurs bounds: minOccurs={raw_min!r} "
            f"maxOccurs={raw_max!r}"
        ) from exc
    return minimum, maximum


def _read_element_decl(element):
    name = element.get(_NAME)
    if name is None:
        raise SchemaReadError("global element declaration without a name")
    type_name = _resolve(element, element.get(_TYPE))
    inline = None
    inline_el = element.find(_COMPLEX_TYPE)
    if inline_el is not None:
        inline = _read_complex_type(inline_el)
    return ElementDecl(
        name=name,
        type_name=type_name,
        inline_type=inline,
        nillable=element.get(_NILLABLE) == "true",
    )


def _read_complex_type(element):
    ctype = ComplexType(
        name=element.get(_NAME),
        mixed=element.get(_MIXED) == "true",
    )
    sequence = element.find(_SEQUENCE)
    if sequence is not None:
        for particle_el in sequence.children:
            particle = _read_particle(particle_el)
            if particle is not None:
                ctype.particles.append(particle)
    for attr_el in element.find_all(_ATTRIBUTE):
        ctype.attributes.append(
            AttributeDecl(
                name=attr_el.get(_NAME),
                type_name=_resolve(attr_el, attr_el.get(_TYPE)),
                ref=_resolve(attr_el, attr_el.get(_REF)),
                use=attr_el.get(_USE, "optional"),
            )
        )
    for kind, kind_name in _CONSTRAINTS:
        for constraint_el in element.find_all(kind_name):
            ctype.constraints.append(_read_constraint(constraint_el, kind))
    return ctype


def _read_particle(element):
    if element.name.namespace != XSD_NS:
        return None
    minimum, maximum = _read_occurs(element)
    if element.name.local == "element":
        ref = element.get(_REF)
        if ref is not None:
            return RefParticle(
                ref=_resolve(element, ref), min_occurs=minimum, max_occurs=maximum
            )
        type_name = _resolve(element, element.get(_TYPE))
        if type_name is None:
            raise SchemaReadError(
                f"local element {element.get(_NAME)!r} lacks a type"
            )
        return ElementParticle(
            name=element.get(_NAME, ""),
            type_name=type_name,
            min_occurs=minimum,
            max_occurs=maximum,
            nillable=element.get(_NILLABLE) == "true",
        )
    if element.name.local == "any":
        return AnyParticle(
            namespace=element.get(_NAMESPACE, "##any"),
            process_contents=element.get(_PROCESS_CONTENTS, "strict"),
            min_occurs=minimum,
            max_occurs=maximum,
        )
    return None


def _read_constraint(element, kind):
    selector_el = element.find(_SELECTOR)
    fields = tuple(
        field_el.get(_XPATH, "")
        for field_el in element.find_all(_FIELD)
    )
    return IdentityConstraint(
        kind=kind,
        name=element.get(_NAME, ""),
        selector=selector_el.get(_XPATH, "") if selector_el is not None else "",
        fields=fields,
        refer=_resolve(element, element.get(_REFER)),
    )
