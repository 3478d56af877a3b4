"""Unit tests for response-side schema validation of echoed envelopes."""

import pytest

import repro.invoke.response as response_module
from repro.invoke.payloads import FieldShape
from repro.invoke.response import ResponseTap, validate_response
from repro.runtime import InMemoryHttpTransport
from repro.soap.envelope import parse_envelope, serialize_envelope
from repro.xmlcore import Element, QName, XSI_NS

TNS = "urn:test"


def _shape(**overrides):
    fields = {
        "size": FieldShape(name="size", xsd_local="int"),
        "mode": FieldShape(name="mode", xsd_local="string",
                           enumerations=("on", "off")),
        "note": FieldShape(name="note", xsd_local="string", nillable=True),
    }
    fields.update(overrides)
    return fields


def _body(children, operation="echoPlain"):
    wrapper = Element(QName(TNS, f"{operation}Response"))
    return_el = wrapper.add_child(Element(QName(TNS, "return")))
    for child in children:
        return_el.add_child(child)
    return serialize_envelope(body_element=wrapper)


def _field(local, text=None):
    element = Element(QName(TNS, local))
    if text is not None:
        element.add_text(text)
    return element


class TestValidateResponse:
    def test_schema_honest_echo_validates_clean(self):
        body = _body([_field("size", "41"), _field("mode", "on")])
        assert validate_response(body, _shape(), "echoPlain") == ()

    def test_empty_body(self):
        assert validate_response("", _shape(), "echoPlain") == (
            "empty response body",
        )

    def test_unparseable_envelope(self):
        problems = validate_response("<oops", _shape(), "echoPlain")
        assert len(problems) == 1
        assert problems[0].startswith("unparseable response envelope")

    def test_wrong_wrapper_local(self):
        body = _body([_field("size", "1")], operation="other")
        problems = validate_response(body, _shape(), "echoPlain")
        assert "not 'echoPlainResponse'" in problems[0]

    def test_missing_return_element(self):
        wrapper = Element(QName(TNS, "echoPlainResponse"))
        body = serialize_envelope(body_element=wrapper)
        assert validate_response(body, _shape(), "echoPlain") == (
            "response wrapper has no return element",
        )

    def test_lexical_violation(self):
        body = _body([_field("size", "not-a-number")])
        problems = validate_response(body, _shape(), "echoPlain")
        assert any("lexical space" in problem for problem in problems)

    def test_enumeration_violation(self):
        body = _body([_field("mode", "sideways")])
        problems = validate_response(body, _shape(), "echoPlain")
        assert any("not in the enumeration" in p for p in problems)

    def test_nil_on_nillable_is_clean(self):
        nil = _field("note")
        nil.set(QName(XSI_NS, "nil"), "true")
        assert validate_response(_body([nil]), _shape(), "echoPlain") == ()

    def test_nil_on_non_nillable_reported(self):
        nil = _field("size")
        nil.set(QName(XSI_NS, "nil"), "true")
        problems = validate_response(_body([nil]), _shape(), "echoPlain")
        assert any("non-nillable" in problem for problem in problems)

    def test_unexpected_nested_structure(self):
        nested = _field("size")
        nested.add_child(Element(QName(TNS, "inner")))
        problems = validate_response(_body([nested]), _shape(), "echoPlain")
        assert any("nested structure" in problem for problem in problems)

    def test_duplicate_non_repeated_element(self):
        body = _body([_field("size", "1"), _field("size", "2")])
        problems = validate_response(body, _shape(), "echoPlain")
        assert any("2 occurrences" in problem for problem in problems)

    def test_repeated_shape_allows_duplicates(self):
        shape = _shape(size=FieldShape(name="size", xsd_local="int",
                                       repeated=True))
        body = _body([_field("size", "1"), _field("size", "2")])
        assert validate_response(body, shape, "echoPlain") == ()

    def test_unknown_element_reported_when_shape_known(self):
        body = _body([_field("mystery", "x")])
        problems = validate_response(body, _shape(), "echoPlain")
        assert any("not in the schema" in problem for problem in problems)

    def test_empty_shape_is_lax(self):
        body = _body([_field("anything", "x")])
        assert validate_response(body, {}, "echoPlain") == ()

    def test_absent_optional_fields_are_legal(self):
        assert validate_response(_body([]), _shape(), "echoPlain") == ()

    @pytest.mark.parametrize("children,operation", [
        ([_field("size", "41"), _field("mode", "on")], "echoPlain"),
        ([_field("size", "4x1"), _field("mode", "maybe")], "echoPlain"),
        ([_field("mystery", "x")], "echoPlain"),
        ([_field("size", "1")], "other"),
    ])
    def test_parsed_envelope_validates_like_its_body(self, children,
                                                     operation):
        body = _body(children, operation=operation)
        envelope = parse_envelope(body)
        assert validate_response(
            body, _shape(), "echoPlain", envelope=envelope
        ) == validate_response(body, _shape(), "echoPlain")

    def test_parsed_envelope_is_not_parsed_again(self, monkeypatch):
        envelope = parse_envelope(_body([_field("size", "41")]))
        monkeypatch.setattr(response_module, "parse_envelope", None)
        assert validate_response(
            "<unused", _shape(), "echoPlain", envelope=envelope
        ) == ()


class TestResponseTap:
    def test_records_last_exchange_and_delegates(self):
        inner = InMemoryHttpTransport()
        tap = ResponseTap(inner)
        tap.register("http://x", lambda body, headers: "pong")
        response = tap.post("http://x", "ping")
        assert response.body == "pong"
        assert tap.last_status == 200
        assert tap.last_body == "pong"
        assert tap.requests_sent == 1
        tap.unregister("http://x")
        tap.post("http://x", "again")
        assert tap.last_status == 404

    def test_exposes_inner_for_close_walks(self):
        from repro.runtime import close_transport

        inner = InMemoryHttpTransport()
        tap = ResponseTap(inner)
        close_transport(tap)
        assert inner.closed
