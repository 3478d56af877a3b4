"""Read a WSDL 1.1 element tree back into :class:`WsdlDocument`.

Like the schema reader, this is lenient: structure is loaded as-is
(including portTypes with zero operations and schemas with dangling
references), and per-framework validation happens in the client models.
"""

from __future__ import annotations

from repro.wsdl.builder import _KNOWN_MARKERS
from repro.wsdl.errors import WsdlReadError
from repro.wsdl.model import SoapBindingInfo, SoapOperation, WsdlDocument, WsdlMessage
from repro.xmlcore import QName, WSDL_NS, WSDL_SOAP_NS, XSD_NS, parse
from repro.xsd.reader import read_schema

_MARKER_BY_QNAME = {
    (namespace, local): marker
    for marker, (namespace, local, __) in _KNOWN_MARKERS.items()
}

# Element names, built once rather than per document.
_DEFINITIONS = QName(WSDL_NS, "definitions")
_TYPES = QName(WSDL_NS, "types")
_SCHEMA = QName(XSD_NS, "schema")
_MESSAGE = QName(WSDL_NS, "message")
_PART = QName(WSDL_NS, "part")
_PORT_TYPE = QName(WSDL_NS, "portType")
_OPERATION = QName(WSDL_NS, "operation")
_INPUT = QName(WSDL_NS, "input")
_OUTPUT = QName(WSDL_NS, "output")
_BINDING = QName(WSDL_NS, "binding")
_SERVICE = QName(WSDL_NS, "service")
_PORT = QName(WSDL_NS, "port")
_SOAP_BINDING = QName(WSDL_SOAP_NS, "binding")
_SOAP_OPERATION = QName(WSDL_SOAP_NS, "operation")
_SOAP_BODY = QName(WSDL_SOAP_NS, "body")
_SOAP_ADDRESS = QName(WSDL_SOAP_NS, "address")

# Attribute names.
_NAME = QName("name")
_TARGET_NAMESPACE = QName("targetNamespace")
_ELEMENT = QName("element")
_MESSAGE_REF = QName("message")
_STYLE = QName("style")
_TRANSPORT = QName("transport")
_USE = QName("use")
_SOAP_ACTION = QName("soapAction")
_LOCATION = QName("location")


def read_wsdl_text(text):
    """Parse WSDL ``text`` and return a :class:`WsdlDocument`."""
    return read_wsdl(parse(text))


def read_wsdl(root):
    """Interpret ``root`` (a ``<wsdl:definitions>``) as a document."""
    if root.name != _DEFINITIONS:
        raise WsdlReadError(f"not a WSDL definitions element: {root.name.text()}")
    target_namespace = root.get(_TARGET_NAMESPACE)
    if not target_namespace:
        raise WsdlReadError("definitions element lacks a targetNamespace")

    document = WsdlDocument(
        name=root.get(_NAME, ""),
        target_namespace=target_namespace,
    )

    markers = []
    for child in root.children:
        marker = _MARKER_BY_QNAME.get((child.name.namespace, child.name.local))
        if marker is not None:
            markers.append(marker)
    document.extension_markers = tuple(markers)

    types_el = root.find(_TYPES)
    if types_el is not None:
        schema_prefix = "xsd"
        for schema_el in types_el.find_all(_SCHEMA):
            if schema_el.prefix_hint:
                schema_prefix = schema_el.prefix_hint
            document.schemas.append(read_schema(schema_el))
        document.schema_prefix = schema_prefix

    for message_el in root.find_all(_MESSAGE):
        part_el = message_el.find(_PART)
        if part_el is None:
            continue
        element_ref = part_el.get(_ELEMENT)
        if element_ref is None:
            raise WsdlReadError(
                f"message {message_el.get(_NAME)!r} part is not element-typed"
            )
        try:
            element_qname = part_el.resolve_qname_value(
                element_ref, default_namespace=target_namespace
            )
        except KeyError as exc:
            raise WsdlReadError(str(exc)) from exc
        document.messages.append(
            WsdlMessage(
                name=message_el.get(_NAME, ""),
                part_name=part_el.get(_NAME, ""),
                element=element_qname,
            )
        )

    port_type_el = root.find(_PORT_TYPE)
    binding_el = root.find(_BINDING)
    soap_actions = _read_soap_actions(binding_el)
    if port_type_el is not None:
        document.port_type_name = port_type_el.get(_NAME, "")
        for op_el in port_type_el.find_all(_OPERATION):
            name = op_el.get(_NAME, "")
            document.operations.append(
                SoapOperation(
                    name=name,
                    input_message=_message_local(op_el, _INPUT),
                    output_message=_message_local(op_el, _OUTPUT),
                    soap_action=soap_actions.get(name, ""),
                )
            )

    document.binding = _read_binding(binding_el)

    service_el = root.find(_SERVICE)
    if service_el is not None:
        document.service_name = service_el.get(_NAME, "")
        port_el = service_el.find(_PORT)
        if port_el is not None:
            document.port_name = port_el.get(_NAME, "")
            address = port_el.find(_SOAP_ADDRESS)
            if address is not None:
                document.endpoint_url = address.get(_LOCATION, "")
    return document


def _message_local(op_el, direction):
    direction_el = op_el.find(direction)
    if direction_el is None:
        return ""
    message = direction_el.get(_MESSAGE_REF, "")
    return message.partition(":")[2] or message


def _read_binding(binding_el):
    if binding_el is None:
        return SoapBindingInfo()
    soap_binding = binding_el.find(_SOAP_BINDING)
    style = "document"
    transport = ""
    if soap_binding is not None:
        style = soap_binding.get(_STYLE, "document")
        transport = soap_binding.get(_TRANSPORT, "")
    use = "literal"
    for body in binding_el.iter_named(_SOAP_BODY):
        use = body.get(_USE, "literal")
        break
    return SoapBindingInfo(style=style, use=use, transport=transport)


def _read_soap_actions(binding_el):
    actions = {}
    if binding_el is None:
        return actions
    for op_el in binding_el.find_all(_OPERATION):
        soap_op = op_el.find(_SOAP_OPERATION)
        if soap_op is not None:
            actions[op_el.get(_NAME, "")] = soap_op.get(_SOAP_ACTION, "")
    return actions
