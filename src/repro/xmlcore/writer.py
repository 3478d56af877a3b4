"""Namespace-aware XML serializer.

Produces either compact or pretty-printed output.  Prefixes are assigned
per element subtree: an element's ``prefix_hint`` is honoured when
possible (so WSDLs can reproduce the conventional ``wsdl:``, ``xsd:``,
``soap:`` and .NET's ``s:`` prefixes), otherwise ``ns0``, ``ns1``, … are
generated.  A subtree shares its parent's prefix scope until one of its
elements binds a prefix, and a value with nothing to escape is written
as it is.
"""

from __future__ import annotations

from repro.xmlcore.errors import XmlWriteError
from repro.xmlcore.model import Document, Element
from repro.xmlcore.names import XML_NS

_INVALID_NAME_CHARS = frozenset(" <>&\"'")


def escape_text(value):
    """Escape character data for element content."""
    if "&" not in value and "<" not in value and ">" not in value:
        return value
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    if "&" not in value and "<" not in value and ">" not in value and '"' not in value:
        return value
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _validate_name(local):
    if not local or local[0].isdigit() or not _INVALID_NAME_CHARS.isdisjoint(local):
        raise XmlWriteError(f"invalid XML name: {local!r}")


class _PrefixAllocator:
    """Allocates stable, non-colliding prefixes for namespace URIs."""

    def __init__(self):
        self._counter = 0
        self._taken = {"xml", "xmlns"}

    def mark_taken(self, prefix):
        if prefix:
            self._taken.add(prefix)

    def allocate(self, uri, hint):
        if uri == XML_NS:
            return "xml"
        if hint and hint not in self._taken:
            self._taken.add(hint)
            return hint
        while True:
            prefix = f"ns{self._counter}"
            self._counter += 1
            if prefix not in self._taken:
                self._taken.add(prefix)
                return prefix


def serialize(root, pretty=True, xml_declaration=True):
    """Serialize an :class:`Element` tree to a string."""
    if not isinstance(root, Element):
        raise XmlWriteError(f"expected Element, got {type(root).__name__}")
    parts = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if pretty:
            parts.append("\n")
    allocator = _PrefixAllocator()
    _write_element(parts, root, {XML_NS: "xml"}, allocator, 0, pretty)
    if pretty:
        parts.append("\n")
    return "".join(parts)


def serialize_document(document, pretty=True):
    """Serialize a :class:`Document` (prolog + root element)."""
    if not isinstance(document, Document):
        raise XmlWriteError(f"expected Document, got {type(document).__name__}")
    return serialize(document.root, pretty=pretty, xml_declaration=True)


def _qualify(name, scope, allocator, new_declarations, hint=None):
    """Return the serialized form of ``name``, declaring namespaces as needed."""
    _validate_name(name.local)
    if name.namespace is None:
        return name.local
    prefix = scope.get(name.namespace)
    if prefix is None:
        prefix = allocator.allocate(name.namespace, hint)
        scope[name.namespace] = prefix
        new_declarations.append((prefix, name.namespace))
    if prefix == "":
        return name.local
    return f"{prefix}:{name.local}"


def _indents_children(content):
    """True if ``content`` holds child elements and no text but whitespace."""
    has_child_elements = False
    for item in content:
        if isinstance(item, Element):
            has_child_elements = True
        elif isinstance(item, str) and item.strip():
            return False
    return has_child_elements


def _write_element(parts, element, scope, allocator, depth, pretty):
    # Explicit namespace declarations (attributes named ``xmlns`` or
    # ``xmlns:foo`` in no namespace) take effect before qualification, so
    # builders can pin the prefixes used inside QName-valued attribute
    # values like ``type="xsd:string"``.
    explicit = []
    plain = []
    namespace = element.name.namespace
    binds = namespace is not None and namespace not in scope
    for attr_name, attr_value in element.attributes.items():
        if attr_name.namespace is None:
            local = attr_name.local
            if local == "xmlns" or local.startswith("xmlns:"):
                explicit.append((local, str(attr_value)))
                continue
        elif attr_name.namespace not in scope:
            binds = True
        plain.append((attr_name, attr_value))

    # The scope is shared down the tree until an element binds a prefix.
    if binds or explicit:
        scope = dict(scope)
        for local, uri in explicit:
            prefix = "" if local == "xmlns" else local[6:]
            scope[uri] = prefix
            allocator.mark_taken(prefix)

    new_declarations = []
    tag = _qualify(element.name, scope, allocator, new_declarations, element.prefix_hint)

    parts.append("<")
    parts.append(tag)

    attr_parts = []
    for attr_name, attr_value in plain:
        rendered = _qualify(attr_name, scope, allocator, new_declarations)
        attr_parts.append(f'{rendered}="{escape_attribute(str(attr_value))}"')
    for local, uri in explicit:
        parts.append(f' {local}="{escape_attribute(uri)}"')

    for prefix, uri in new_declarations:
        if prefix == "":
            parts.append(f' xmlns="{escape_attribute(uri)}"')
        else:
            parts.append(f' xmlns:{prefix}="{escape_attribute(uri)}"')
    for rendered in attr_parts:
        parts.append(" ")
        parts.append(rendered)

    content = element.content
    if not content:
        parts.append("/>")
        return

    parts.append(">")
    if pretty and _indents_children(content):
        # Only whitespace text sits between the children: re-indent them.
        child_indent = "\n" + "  " * (depth + 1)
        for item in content:
            if isinstance(item, str):
                continue
            parts.append(child_indent)
            _write_element(parts, item, scope, allocator, depth + 1, pretty)
        parts.append("\n" + "  " * depth)
    else:
        for item in content:
            if isinstance(item, str):
                parts.append(escape_text(item))
            else:
                _write_element(parts, item, scope, allocator, depth + 1, pretty)
    parts.append(f"</{tag}>")
