"""Property-based tests for the XML substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmlcore import Element, QName, XmlParseError, parse, serialize

_NAME_START = string.ascii_letters + "_"
_NAME_CHARS = string.ascii_letters + string.digits + "_-."

names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(list(_NAME_START)),
    st.text(alphabet=_NAME_CHARS, max_size=8),
)

namespaces = st.one_of(
    st.none(),
    st.builds(lambda suffix: f"urn:ns:{suffix}", st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)),
)

qnames = st.builds(lambda ns, local: QName(ns, local), namespaces, names)

text_content = st.text(
    alphabet=st.characters(
        codec="utf-8",
        exclude_characters="\r",  # the writer does not normalize CR
        exclude_categories=("Cs", "Cc"),
    ),
    min_size=1,
    max_size=40,
)

attribute_values = text_content | st.just("")


@st.composite
def elements(draw, depth=3):
    element = Element(draw(qnames))
    for attr_name in draw(st.lists(names, max_size=3, unique=True)):
        element.set(QName(attr_name), draw(attribute_values))
    if depth > 0:
        for child in draw(st.lists(elements(depth=depth - 1), max_size=3)):
            element.add_child(child)
    if draw(st.booleans()):
        text = draw(text_content)
        if text.strip():
            element.add_text(text)
    return element


class TestRoundTrip:
    @given(tree=elements())
    @settings(max_examples=200, deadline=None)
    def test_serialize_parse_roundtrip(self, tree):
        reparsed = parse(serialize(tree))
        assert reparsed.structurally_equal(tree)

    @given(tree=elements())
    @settings(max_examples=100, deadline=None)
    def test_compact_and_pretty_agree(self, tree):
        compact = parse(serialize(tree, pretty=False))
        pretty = parse(serialize(tree, pretty=True))
        assert compact.structurally_equal(pretty)

    @given(value=text_content)
    @settings(max_examples=200, deadline=None)
    def test_attribute_value_roundtrip(self, value):
        element = Element(QName("a"))
        element.set(QName("v"), value)
        reparsed = parse(serialize(element))
        assert reparsed.get(QName("v")) == value

    @given(value=text_content)
    @settings(max_examples=200, deadline=None)
    def test_text_roundtrip(self, value):
        reparsed = parse(serialize(Element(QName("a"), text=value)))
        assert reparsed.text == value


class TestParserTotality:
    @given(blob=st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_raises_unexpected(self, blob):
        # A bad numeric character reference (chr() out of range, int()
        # over its digit limit) is an XmlParseError too.
        try:
            root = parse(blob)
        except XmlParseError:
            return
        assert isinstance(root, Element)

    @given(tree=elements(depth=2))
    @settings(max_examples=100, deadline=None)
    def test_serialization_is_deterministic(self, tree):
        assert serialize(tree) == serialize(tree)
