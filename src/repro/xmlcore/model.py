"""Element tree model: qualified names, elements and documents.

The model is deliberately small — exactly what WSDL/XSD/SOAP documents
need — but complete enough for lossless round-trips through the writer and
parser: namespaces, attributes, mixed text/element content.
"""

from __future__ import annotations


class QName:
    """An XML qualified name: ``(namespace URI, local name)``.

    ``namespace`` is ``None`` for names in no namespace.  Instances are
    immutable, hashable and compare by value, so they can be used as
    dictionary keys for attributes.
    """

    __slots__ = ("namespace", "local")

    def __init__(self, namespace, local=None):
        # QName("local") means a name in no namespace.
        if local is None:
            namespace, local = None, namespace
        if not local:
            raise ValueError("QName requires a non-empty local name")
        object.__setattr__(self, "namespace", namespace)
        object.__setattr__(self, "local", local)

    def __setattr__(self, name, value):
        raise AttributeError("QName is immutable")

    def __eq__(self, other):
        if isinstance(other, QName):
            return self.namespace == other.namespace and self.local == other.local
        return NotImplemented

    def __hash__(self):
        return hash((self.namespace, self.local))

    def __repr__(self):
        if self.namespace is None:
            return f"QName({self.local!r})"
        return f"QName({self.namespace!r}, {self.local!r})"

    def text(self):
        """Clark notation (``{uri}local``), handy for error messages."""
        if self.namespace is None:
            return self.local
        return "{%s}%s" % (self.namespace, self.local)


class Element:
    """An XML element: a name, attributes, and ordered mixed content.

    Content items are either :class:`Element` children or plain ``str``
    text nodes.  ``prefix_hint`` lets builders suggest the prefix the
    writer should use for the element's namespace (purely cosmetic; it
    also lets us reproduce real-world WSDL prefixes like ``s:`` for the
    .NET schema namespace, which some historical tools keyed on).
    """

    __slots__ = ("name", "attributes", "content", "prefix_hint", "nsscope")

    def __init__(self, name, attributes=None, text=None, prefix_hint=None):
        if not isinstance(name, QName):
            name = QName(name)
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.content = []
        self.prefix_hint = prefix_hint
        #: prefix → namespace-URI map in scope at this element.  Set by
        #: the parser so that QName-valued *attribute values* (e.g.
        #: ``type="xsd:string"``) can be resolved after parsing.
        self.nsscope = None
        if text is not None:
            self.content.append(text)

    # -- construction -----------------------------------------------------

    def set(self, name, value):
        """Set attribute ``name`` (a :class:`QName` or plain string)."""
        if not isinstance(name, QName):
            name = QName(name)
        self.attributes[name] = value
        return self

    def add_child(self, child):
        """Append an :class:`Element` child and return it (for chaining)."""
        if not isinstance(child, Element):
            raise TypeError(f"expected Element, got {type(child).__name__}")
        self.content.append(child)
        return child

    def add_text(self, text):
        """Append a text node."""
        self.content.append(str(text))
        return self

    # -- queries ----------------------------------------------------------

    def get(self, name, default=None):
        """Return attribute value for ``name`` (QName or string)."""
        if not isinstance(name, QName):
            name = QName(name)
        return self.attributes.get(name, default)

    @property
    def children(self):
        """Element children only, in document order."""
        return [item for item in self.content if isinstance(item, Element)]

    @property
    def text(self):
        """Concatenation of all direct text nodes."""
        return "".join(item for item in self.content if isinstance(item, str))

    def find(self, name):
        """First child with qualified name ``name``, or ``None``."""
        if not isinstance(name, QName):
            name = QName(name)
        for item in self.content:
            if isinstance(item, Element) and item.name == name:
                return item
        return None

    def find_all(self, name):
        """All direct children with qualified name ``name``."""
        if not isinstance(name, QName):
            name = QName(name)
        return [
            item for item in self.content
            if isinstance(item, Element) and item.name == name
        ]

    def find_local(self, local):
        """First child whose local name is ``local`` (any namespace)."""
        for child in self.children:
            if child.name.local == local:
                return child
        return None

    def find_all_local(self, local):
        """All direct children whose local name is ``local``."""
        return [child for child in self.children if child.name.local == local]

    def iter(self):
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    def iter_named(self, name):
        """Depth-first iteration filtered by qualified name."""
        if not isinstance(name, QName):
            name = QName(name)
        for element in self.iter():
            if element.name == name:
                yield element

    def __repr__(self):
        return f"<Element {self.name.text()} attrs={len(self.attributes)} content={len(self.content)}>"

    def resolve_qname_value(self, value, default_namespace=None):
        """Resolve a QName-valued attribute value like ``xsd:string``.

        Uses the namespace scope recorded by the parser.  An unprefixed
        value resolves to ``default_namespace`` (QName attribute values
        do *not* use the default ``xmlns`` in our documents' idiom, so
        the caller chooses the fallback — usually the target namespace).
        Raises :class:`KeyError` for an undeclared prefix.
        """
        prefix, sep, local = value.partition(":")
        if not sep:
            return QName(default_namespace, value)
        scope = self.nsscope or {}
        if prefix not in scope:
            raise KeyError(f"undeclared prefix {prefix!r} in QName value {value!r}")
        return QName(scope[prefix], local)

    # -- structural equality (used heavily by round-trip tests) -----------

    def structurally_equal(self, other):
        """True if both trees have the same names, attributes and content.

        Whitespace-only text nodes are ignored, because the writer may
        pretty-print: semantic equality is what round-trip tests need.
        """
        if not isinstance(other, Element):
            return False
        if self.name != other.name or self.attributes != other.attributes:
            return False
        mine = _significant_content(self)
        theirs = _significant_content(other)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if isinstance(a, Element) != isinstance(b, Element):
                return False
            if isinstance(a, Element):
                if not a.structurally_equal(b):
                    return False
            elif a != b:
                return False
        return True


def _significant_content(element):
    """Content with whitespace-only text dropped and adjacent text merged."""
    merged = []
    for item in element.content:
        if isinstance(item, str):
            if not item.strip():
                continue
            if merged and isinstance(merged[-1], str):
                merged[-1] += item
                continue
        merged.append(item)
    return merged


class Document:
    """A parsed XML document: the root element plus prolog details."""

    __slots__ = ("root", "version", "encoding", "standalone")

    def __init__(self, root, version="1.0", encoding="UTF-8", standalone=None):
        self.root = root
        self.version = version
        self.encoding = encoding
        self.standalone = standalone

    def __repr__(self):
        return f"<Document root={self.root.name.text()}>"
