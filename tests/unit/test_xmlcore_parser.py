"""Unit tests for the XML parser."""

import pytest

from repro.xmlcore import QName, XmlLimitError, XmlParseError, parse, parse_document


class TestBasics:
    def test_simple_element(self):
        root = parse("<a/>")
        assert root.name == QName("a")
        assert not root.content

    def test_nested_elements(self):
        root = parse("<a><b><c/></b></a>")
        assert root.children[0].children[0].name.local == "c"

    def test_text_content(self):
        assert parse("<a>hello</a>").text == "hello"

    def test_attributes_double_and_single_quotes(self):
        root = parse("<a x=\"1\" y='2'/>")
        assert root.get("x") == "1"
        assert root.get("y") == "2"

    def test_whitespace_around_equals(self):
        assert parse('<a x = "1"/>').get("x") == "1"

    def test_declaration_parsed(self):
        doc = parse_document('<?xml version="1.1" encoding="latin-1"?><a/>')
        assert doc.version == "1.1"
        assert doc.encoding == "latin-1"

    def test_standalone_parsed(self):
        doc = parse_document('<?xml version="1.0" standalone="yes"?><a/>')
        assert doc.standalone == "yes"

    def test_bom_stripped(self):
        assert parse("﻿<a/>").name.local == "a"

    def test_comments_skipped(self):
        root = parse("<a><!-- note --><b/><!-- end --></a>")
        assert [c.name.local for c in root.children] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse("<a><?php echo ?><b/></a>")
        assert len(root.children) == 1

    def test_doctype_skipped(self):
        root = parse('<!DOCTYPE html><a/>')
        assert root.name.local == "a"

    def test_cdata_preserved_verbatim(self):
        assert parse("<a><![CDATA[1 < 2 & x]]></a>").text == "1 < 2 & x"


class TestEntities:
    def test_predefined_entities(self):
        assert parse("<a>&lt;&gt;&amp;&quot;&apos;</a>").text == "<>&\"'"

    def test_decimal_char_ref(self):
        assert parse("<a>&#65;</a>").text == "A"

    def test_hex_char_ref(self):
        assert parse("<a>&#x41;</a>").text == "A"

    def test_entity_in_attribute(self):
        assert parse('<a x="a&amp;b"/>').get("x") == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&nbsp;</a>")

    @pytest.mark.parametrize(
        "reference,message,column",
        [
            # the message drops the ``x`` of a hexadecimal reference
            ("&#x110000;", "invalid character reference &#110000;", 14),
            ("&#-5;", "invalid character reference &#-5;", 9),
            ("&#x;", "invalid character reference &#;", 8),
            # past int()'s default limit of 4,300 digits
            ("&#" + "9" * 5000 + ";",
             "invalid character reference &#" + "9" * 5000 + ";", 5007),
        ],
        ids=["above-unicode", "negative", "no-digits", "5000-digits"],
    )
    def test_invalid_char_reference_is_a_parse_error(self, reference, message, column):
        with pytest.raises(XmlParseError) as caught:
            parse(f"<a>{reference}</a>")
        assert type(caught.value) is XmlParseError
        assert caught.value.message == message
        assert (caught.value.line, caught.value.column) == (1, column)


class TestNamespaces:
    def test_default_namespace(self):
        root = parse('<a xmlns="urn:x"><b/></a>')
        assert root.name == QName("urn:x", "a")
        assert root.children[0].name == QName("urn:x", "b")

    def test_prefixed_namespace(self):
        root = parse('<p:a xmlns:p="urn:x"/>')
        assert root.name == QName("urn:x", "a")
        assert root.prefix_hint == "p"

    def test_default_namespace_undeclared(self):
        root = parse('<a xmlns="urn:x"><b xmlns=""/></a>')
        assert root.children[0].name == QName(None, "b")

    def test_inner_redeclaration_shadows(self):
        root = parse('<p:a xmlns:p="urn:x"><p:b xmlns:p="urn:y"/></p:a>')
        assert root.children[0].name == QName("urn:y", "b")

    def test_unprefixed_attribute_has_no_namespace(self):
        root = parse('<a xmlns="urn:x" k="v"/>')
        assert root.get(QName("k")) == "v"

    def test_prefixed_attribute_resolved(self):
        root = parse('<a xmlns:n="urn:n" n:k="v"/>')
        assert root.get(QName("urn:n", "k")) == "v"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<p:a/>")

    def test_xml_prefix_predeclared(self):
        root = parse('<a xml:lang="en"/>')
        assert root.get(QName("http://www.w3.org/XML/1998/namespace", "lang")) == "en"

    def test_nsscope_recorded(self):
        root = parse('<a xmlns:t="urn:t" type="t:x"/>')
        assert root.resolve_qname_value("t:x") == QName("urn:t", "x")


class TestWellFormedness:
    @pytest.mark.parametrize(
        "text",
        [
            "<a>",  # unterminated
            "<a></b>",  # mismatched tags
            "<a/><b/>",  # two roots
            "<a x=1/>",  # unquoted attribute
            '<a x="1" x="2"/>',  # duplicate attribute
            '<a x="<"/>',  # raw < in attribute value
            "text only",  # no element
            "<a><!-- unterminated </a>",
            "<a><![CDATA[x</a>",
            "",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_duplicate_attribute_via_prefixes_rejected(self):
        with pytest.raises(XmlParseError):
            parse('<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>')

    def test_content_after_root_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a/>junk")

    def test_error_reports_position(self):
        try:
            parse("<a>\n  <b>\n</a>")
        except XmlParseError as exc:
            assert exc.line >= 2
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")

    def test_trailing_comment_allowed(self):
        assert parse("<a/><!-- bye -->").name.local == "a"


class TestLimits:
    """Each default budget: the exact diagnostic one step past it."""

    @staticmethod
    def _limit_error(text):
        with pytest.raises(XmlLimitError) as caught:
            parse(text)
        error = caught.value
        return error.message, error.limit, error.line, error.column

    def test_max_depth(self):
        assert parse("<a>" * 160 + "</a>" * 160).name.local == "a"
        assert self._limit_error("<a>\n" * 161 + "</a>\n" * 161) == (
            "element nesting deeper than 160", "max_depth", 161, 1,
        )

    def test_max_text_length_text_run(self):
        assert parse("<r>\n  <a>" + "x" * 1_000_000 + "</a>\n</r>").name.local == "r"
        assert self._limit_error("<r>\n  <a>" + "x" * 1_000_001 + "</a>\n</r>") == (
            "text run longer than 1000000", "max_text_length", 2, 1_000_007,
        )

    def test_max_text_length_cdata(self):
        text = "<r>\n  <a><![CDATA[" + "x" * 1_000_001 + "]]></a>\n</r>"
        assert self._limit_error(text) == (
            "CDATA section longer than 1000000", "max_text_length", 2, 1_000_019,
        )

    def test_max_text_length_attribute_value(self):
        text = '<r>\n  <a v="' + "x" * 1_000_001 + '"/>\n</r>'
        assert self._limit_error(text) == (
            "attribute value longer than 1000000", "max_text_length", 2, 1_000_011,
        )

    def test_max_entity_references(self):
        assert parse("<a>" + "&amp;" * 10_000 + "</a>").text == "&" * 10_000
        assert self._limit_error("<r>\n  <a>" + "&amp;" * 10_001 + "</a>\n</r>") == (
            "more than 10000 entity references in one text run",
            "max_entity_references", 2, 50_011,
        )
