"""Reference oracle: the character-by-character XML parser and escapes.

This is the recursive-descent parser, and the two writer escape
functions, that ``repro.xmlcore`` used before it scanned a token at a
time.  It is frozen here as a test-only oracle: the differential tests
assert that the token-scanning parser builds the same tree for every
document this code accepts, and raises the same exception (class,
message, limit, position, line and column) for every document it
rejects.  Nothing under ``src/`` imports it.  Do not edit it to match
the parser; a difference is a bug in the parser.

Supports the XML subset that real WSDL/XSD/SOAP documents use: the XML
declaration, comments, processing instructions, a (skipped) DOCTYPE,
elements with single- or double-quoted attributes, character data, CDATA
sections, the five predefined entities and numeric character references,
and full namespace resolution (default and prefixed, including
undeclaration via ``xmlns=""``).

The parser is strict about well-formedness — mismatched tags, duplicate
attributes, undeclared prefixes and stray content all raise
:class:`~repro.xmlcore.errors.XmlParseError` with line/column positions —
because the client-tool simulators rely on those diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlcore.errors import XmlLimitError, XmlParseError
from repro.xmlcore.model import Document, Element, QName
from repro.xmlcore.names import XML_NS


@dataclass(frozen=True)
class XmlLimits:
    """Resource budgets enforced while parsing.

    Hostile documents (pathological nesting, megabyte text nodes) must
    fail with a classified :class:`XmlLimitError` — never by exhausting
    Python's recursion limit or memory.  The defaults are far above
    anything a real WSDL/XSD/SOAP document produces, so well-formed
    corpus documents are unaffected.
    """

    #: Maximum element nesting depth (root = depth 1).  Kept safely
    #: below Python's default recursion limit: each level costs two
    #: interpreter frames in the recursive-descent parser.
    max_depth: int = 160
    #: Maximum length of one character-data / CDATA / attribute-value
    #: run, measured before entity decoding.
    max_text_length: int = 1_000_000
    #: Maximum number of entity/character references decoded in one run.
    max_entity_references: int = 10_000


DEFAULT_LIMITS = XmlLimits()

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-·")


def _is_name_start(ch):
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch):
    return ch.isalnum() or ch in _NAME_EXTRA


class _Scanner:
    """Cursor over the input text with line/column tracking."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def eof(self):
        return self.pos >= self.length

    def peek(self, offset=0):
        index = self.pos + offset
        if index < self.length:
            return self.text[index]
        return ""

    def startswith(self, token):
        return self.text.startswith(token, self.pos)

    def advance(self, count=1):
        self.pos += count

    def location(self):
        """1-based (line, column) of the current position."""
        line = self.text.count("\n", 0, self.pos) + 1
        last_newline = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return line, column

    def error(self, message):
        line, column = self.location()
        return XmlParseError(message, position=self.pos, line=line, column=column)

    def limit_error(self, message, limit):
        line, column = self.location()
        return XmlLimitError(
            message, limit=limit, position=self.pos, line=line, column=column
        )

    def skip_whitespace(self):
        while not self.eof() and self.peek() in " \t\r\n":
            self.advance()

    def expect(self, token):
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.advance(len(token))

    def read_name(self):
        start = self.pos
        if self.eof() or not _is_name_start(self.peek()):
            raise self.error("expected an XML name")
        self.advance()
        while not self.eof() and _is_name_char(self.peek()):
            self.advance()
        return self.text[start : self.pos]

    def read_until(self, token, description):
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {description}")
        value = self.text[self.pos : end]
        self.pos = end + len(token)
        return value


def _decode_entities(raw, scanner, limits=DEFAULT_LIMITS):
    """Resolve entity and character references inside ``raw`` text."""
    if "&" not in raw:
        return raw
    out = []
    index = 0
    references = 0
    while index < len(raw):
        ch = raw[index]
        if ch != "&":
            out.append(ch)
            index += 1
            continue
        references += 1
        if references > limits.max_entity_references:
            raise scanner.limit_error(
                f"more than {limits.max_entity_references} entity references "
                "in one text run",
                limit="max_entity_references",
            )
        end = raw.find(";", index + 1)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        entity = raw[index + 1 : end]
        if entity.startswith("#x") or entity.startswith("#X"):
            out.append(_char_reference(entity[2:], 16, scanner))
        elif entity.startswith("#"):
            out.append(_char_reference(entity[1:], 10, scanner))
        elif entity in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise scanner.error(f"unknown entity &{entity};")
        index = end + 1
    return "".join(out)


def _char_reference(digits, base, scanner):
    try:
        return chr(int(digits, base))
    except (ValueError, OverflowError):
        raise scanner.error(f"invalid character reference &#{digits};") from None


class _Parser:
    def __init__(self, text, limits=None):
        if text.startswith("﻿"):
            text = text[1:]
        self.scanner = _Scanner(text)
        self.limits = limits or DEFAULT_LIMITS

    # -- document ----------------------------------------------------------

    def parse_document(self):
        version, encoding, standalone = self._parse_prolog()
        root = self._parse_element({None: None, "xml": XML_NS})
        self._parse_epilog()
        return Document(root, version=version, encoding=encoding, standalone=standalone)

    def _parse_prolog(self):
        scanner = self.scanner
        version, encoding, standalone = "1.0", "UTF-8", None
        scanner.skip_whitespace()
        if scanner.startswith("<?xml"):
            scanner.advance(5)
            declaration = scanner.read_until("?>", "XML declaration")
            attrs = _parse_pseudo_attributes(declaration)
            version = attrs.get("version", "1.0")
            encoding = attrs.get("encoding", "UTF-8")
            standalone = attrs.get("standalone")
        self._skip_misc(allow_doctype=True)
        return version, encoding, standalone

    def _parse_epilog(self):
        self._skip_misc(allow_doctype=False)
        if not self.scanner.eof():
            raise self.scanner.error("content after document root")

    def _skip_misc(self, allow_doctype):
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                scanner.advance(4)
                scanner.read_until("-->", "comment")
            elif scanner.startswith("<?"):
                scanner.advance(2)
                scanner.read_until("?>", "processing instruction")
            elif allow_doctype and scanner.startswith("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_doctype(self):
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        depth = 1
        while depth and not scanner.eof():
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()
        if depth:
            raise scanner.error("unterminated DOCTYPE")

    # -- elements ----------------------------------------------------------

    def _parse_element(self, namespace_scope, depth=1):
        scanner = self.scanner
        if depth > self.limits.max_depth:
            raise scanner.limit_error(
                f"element nesting deeper than {self.limits.max_depth}",
                limit="max_depth",
            )
        scanner.expect("<")
        raw_name = scanner.read_name()
        raw_attributes = self._parse_attributes()

        scope = namespace_scope
        declarations = {}
        for attr_raw, value in raw_attributes:
            if attr_raw == "xmlns":
                declarations[None] = value or None
            elif attr_raw.startswith("xmlns:"):
                prefix = attr_raw[6:]
                if not value:
                    raise scanner.error(f"cannot undeclare prefix {prefix!r}")
                declarations[prefix] = value
        if declarations:
            scope = dict(namespace_scope)
            scope.update(declarations)

        prefix, local = _split_raw_name(raw_name, scanner)
        namespace = self._resolve(prefix, scope, is_attribute=False)
        element = Element(QName(namespace, local), prefix_hint=prefix)
        element.nsscope = scope

        seen = set()
        for attr_raw, value in raw_attributes:
            if attr_raw == "xmlns" or attr_raw.startswith("xmlns:"):
                continue
            attr_prefix, attr_local = _split_raw_name(attr_raw, scanner)
            attr_namespace = self._resolve(attr_prefix, scope, is_attribute=True)
            qname = QName(attr_namespace, attr_local)
            if qname in seen:
                raise scanner.error(f"duplicate attribute {attr_raw!r}")
            seen.add(qname)
            element.attributes[qname] = value

        scanner.skip_whitespace()
        if scanner.startswith("/>"):
            scanner.advance(2)
            return element
        scanner.expect(">")
        self._parse_content(element, scope, depth)

        end_name = scanner.read_name()
        if end_name != raw_name:
            raise scanner.error(f"mismatched end tag </{end_name}>, expected </{raw_name}>")
        scanner.skip_whitespace()
        scanner.expect(">")
        return element

    def _parse_attributes(self):
        scanner = self.scanner
        attributes = []
        while True:
            before = scanner.pos
            scanner.skip_whitespace()
            ch = scanner.peek()
            if ch in ("/", ">", ""):
                return attributes
            if scanner.pos == before:
                raise scanner.error("expected whitespace before attribute")
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute value must be quoted")
            scanner.advance()
            raw_value = scanner.read_until(quote, "attribute value")
            if len(raw_value) > self.limits.max_text_length:
                raise scanner.limit_error(
                    f"attribute value longer than {self.limits.max_text_length}",
                    limit="max_text_length",
                )
            if "<" in raw_value:
                raise scanner.error("'<' is not allowed in attribute values")
            attributes.append(
                (name, _decode_entities(raw_value, scanner, self.limits))
            )

    def _parse_content(self, element, scope, depth=1):
        scanner = self.scanner
        limits = self.limits
        while True:
            if scanner.eof():
                raise scanner.error(f"unterminated element <{element.name.local}>")
            if scanner.startswith("</"):
                scanner.advance(2)
                return
            if scanner.startswith("<!--"):
                scanner.advance(4)
                scanner.read_until("-->", "comment")
            elif scanner.startswith("<![CDATA["):
                scanner.advance(9)
                cdata = scanner.read_until("]]>", "CDATA section")
                if len(cdata) > limits.max_text_length:
                    raise scanner.limit_error(
                        f"CDATA section longer than {limits.max_text_length}",
                        limit="max_text_length",
                    )
                element.content.append(cdata)
            elif scanner.startswith("<?"):
                scanner.advance(2)
                scanner.read_until("?>", "processing instruction")
            elif scanner.peek() == "<":
                element.content.append(self._parse_element(scope, depth + 1))
            else:
                start = scanner.pos
                end = scanner.text.find("<", start)
                if end < 0:
                    end = scanner.length
                scanner.pos = end
                raw = scanner.text[start:end]
                if len(raw) > limits.max_text_length:
                    raise scanner.limit_error(
                        f"text run longer than {limits.max_text_length}",
                        limit="max_text_length",
                    )
                text = _decode_entities(raw, scanner, limits)
                if text:
                    element.content.append(text)

    def _resolve(self, prefix, scope, is_attribute):
        if prefix is None:
            if is_attribute:
                return None
            return scope.get(None)
        if prefix not in scope:
            raise self.scanner.error(f"undeclared namespace prefix {prefix!r}")
        return scope[prefix]


def _split_raw_name(raw, scanner):
    if ":" in raw:
        prefix, _, local = raw.partition(":")
        if not prefix or not local or ":" in local:
            raise scanner.error(f"malformed qualified name {raw!r}")
        return prefix, local
    return None, raw


def _parse_pseudo_attributes(declaration):
    # Keys sit at even indexes, values at odd indexes, once quotes are split.
    pieces = declaration.replace("'", '"').split('"')
    keys = [piece.strip().rstrip("=").strip() for piece in pieces[0::2]]
    values = pieces[1::2]
    result = {}
    for key, value in zip(keys, values):
        if key:
            result[key] = value
    return result


def parse(text, limits=None):
    """Parse ``text`` and return the root :class:`Element`.

    ``limits`` (an :class:`XmlLimits`) bounds nesting depth and text-run
    size; breaching a budget raises a classified :class:`XmlLimitError`.
    """
    return _Parser(text, limits=limits).parse_document().root


def parse_document(text, limits=None):
    """Parse ``text`` and return the full :class:`Document`."""
    return _Parser(text, limits=limits).parse_document()


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(value):
    """Escape character data for element content."""
    return "".join(_TEXT_ESCAPES.get(ch, ch) for ch in value)


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    return "".join(_ATTR_ESCAPES.get(ch, ch) for ch in value)
