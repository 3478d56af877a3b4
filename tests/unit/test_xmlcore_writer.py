"""Unit tests for the XML serializer."""

import pytest

from repro.xmlcore import Element, QName, XmlWriteError, parse, serialize
from repro.xmlcore.writer import escape_attribute, escape_text


class TestEscaping:
    def test_text_escapes_markup(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escapes_quote(self):
        assert escape_attribute('say "hi" & go') == "say &quot;hi&quot; &amp; go"

    def test_text_keeps_quotes(self):
        assert escape_text('"') == '"'


class TestSerialize:
    def test_declaration_present_by_default(self):
        text = serialize(Element(QName("a")))
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_declaration_can_be_suppressed(self):
        text = serialize(Element(QName("a")), xml_declaration=False)
        assert text.strip() == "<a/>"

    def test_empty_element_self_closes(self):
        assert "<a/>" in serialize(Element(QName("a")))

    def test_prefix_hint_honoured(self):
        root = Element(QName("urn:x", "doc"), prefix_hint="d")
        text = serialize(root)
        assert '<d:doc xmlns:d="urn:x"/>' in text

    def test_prefix_generated_when_no_hint(self):
        text = serialize(Element(QName("urn:x", "doc")))
        assert 'xmlns:ns0="urn:x"' in text

    def test_colliding_hints_get_fresh_prefix(self):
        root = Element(QName("urn:x", "doc"), prefix_hint="p")
        root.add_child(Element(QName("urn:y", "item"), prefix_hint="p"))
        reparsed = parse(serialize(root))
        assert reparsed.children[0].name == QName("urn:y", "item")

    def test_namespaced_attribute_gets_prefix(self):
        root = Element(QName("a"))
        root.set(QName("urn:n", "k"), "v")
        text = serialize(root)
        assert 'ns0:k="v"' in text and 'xmlns:ns0="urn:n"' in text

    def test_explicit_xmlns_declaration_reused(self):
        root = Element(QName("urn:x", "doc"), prefix_hint="x")
        root.set(QName("xmlns:x"), "urn:x")
        text = serialize(root, xml_declaration=False)
        assert text.count("urn:x") == 1  # declared once, not twice

    def test_explicit_declaration_supports_attr_values(self):
        root = Element(QName("a"))
        root.set(QName("xmlns:t"), "urn:t")
        root.set(QName("type"), "t:thing")
        reparsed = parse(serialize(root))
        assert reparsed.resolve_qname_value("t:thing") == QName("urn:t", "thing")

    def test_text_content_escaped(self):
        root = Element(QName("a"), text="1 < 2 & 3")
        assert "1 &lt; 2 &amp; 3" in serialize(root)

    def test_pretty_indents_children(self):
        root = Element(QName("a"))
        root.add_child(Element(QName("b")))
        text = serialize(root, pretty=True)
        assert "\n  <b/>" in text

    def test_compact_has_no_newlines_between_children(self):
        root = Element(QName("a"))
        root.add_child(Element(QName("b")))
        text = serialize(root, pretty=False, xml_declaration=False)
        assert text == "<a><b/></a>"

    def test_mixed_content_not_indented(self):
        root = Element(QName("a"))
        root.add_text("hello ")
        root.add_child(Element(QName("b")))
        text = serialize(root, pretty=True, xml_declaration=False)
        assert "hello <b/>" in text

    def test_invalid_name_rejected(self):
        with pytest.raises(XmlWriteError):
            serialize(Element(QName("1bad")))

    # The first character is tested with str.isdigit: "²" and "٣" are
    # digits to it, "½" is not.
    @pytest.mark.parametrize("local", ["²bad", "٣bad", "a b", "a<b", "a>b", "a&b", 'a"b', "a'b"])
    def test_digit_start_or_markup_character_rejected(self, local):
        with pytest.raises(XmlWriteError):
            serialize(Element(QName(local)))

    def test_numeric_non_digit_start_accepted(self):
        assert serialize(Element(QName("½ok")), xml_declaration=False) == "<½ok/>\n"

    def test_non_element_rejected(self):
        with pytest.raises(XmlWriteError):
            serialize("not an element")

    def test_xml_prefix_reserved_for_xml_namespace(self):
        root = Element(QName("a"))
        root.set(QName("http://www.w3.org/XML/1998/namespace", "lang"), "en")
        assert 'xml:lang="en"' in serialize(root)
