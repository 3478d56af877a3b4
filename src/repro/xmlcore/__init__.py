"""Minimal, self-contained XML infoset used by every other substrate.

The paper's ecosystem is built on XML documents (WSDL, XSD, SOAP).  No
third-party XML library is assumed: this package provides an element tree
model (:mod:`repro.xmlcore.model`), a namespace-aware serializer
(:mod:`repro.xmlcore.writer`) and a self-contained parser
(:mod:`repro.xmlcore.parser`) that scans a token at a time: compiled
patterns match whole tags and ``str.find`` locates text runs.  A tag the
patterns miss is re-scanned character by character, so every diagnostic
(message, position, line and column) is what that scan reports.

Quick use::

    from repro.xmlcore import Element, QName, parse, serialize

    root = Element(QName("urn:x", "doc"))
    root.add_child(Element(QName("urn:x", "item"), text="hi"))
    text = serialize(root)
    again = parse(text)
"""

from repro.xmlcore.errors import (
    XmlError,
    XmlLimitError,
    XmlParseError,
    XmlWriteError,
)
from repro.xmlcore.model import Document, Element, QName
from repro.xmlcore.names import (
    SOAP_ENV_NS,
    SOAP_HTTP_TRANSPORT,
    WSDL_NS,
    WSDL_SOAP_NS,
    XML_NS,
    XMLNS_NS,
    XSD_NS,
    XSI_NS,
)
from repro.xmlcore.parser import DEFAULT_LIMITS, XmlLimits, parse, parse_document
from repro.xmlcore.writer import serialize, serialize_document
from repro.xmlcore.xpath import XPathError, select, select_one

__all__ = [
    "DEFAULT_LIMITS",
    "Document",
    "Element",
    "QName",
    "SOAP_ENV_NS",
    "SOAP_HTTP_TRANSPORT",
    "WSDL_NS",
    "WSDL_SOAP_NS",
    "XML_NS",
    "XMLNS_NS",
    "XSD_NS",
    "XSI_NS",
    "XPathError",
    "XmlError",
    "XmlLimitError",
    "XmlLimits",
    "XmlParseError",
    "XmlWriteError",
    "parse",
    "parse_document",
    "select",
    "select_one",
    "serialize",
    "serialize_document",
]
