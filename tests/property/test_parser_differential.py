"""Differential oracle: the token-scanning parser against the frozen reference.

``tests/xml_reference.py`` keeps the character-by-character parser and
writer escapes that the token-scanning code replaced.  Every document
here goes through both.  An accepted document must yield the same tree:
names, attributes in order, ``prefix_hint``, ``nsscope`` and content
lists, whitespace-only text nodes included.  A rejected one must raise
the same exception class with the same message, ``limit``, ``position``,
``line`` and ``column``, because the client simulators and the fuzz
quarantine classify on those.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.appservers import container_for
from repro.core import Campaign, CampaignConfig
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS
from repro.xmlcore import XmlLimits, XmlParseError, parse_document
from repro.xmlcore.writer import escape_attribute, escape_text
from tests import xml_reference as reference
from tests.property.test_fuzz_invariants import _mutants, base_texts  # noqa: F401

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "golden")

#: Characters on which ``str.isalpha``/``str.isalnum`` (the reference's
#: name test) and regex ``\w``/``\d`` disagree, plus ``·``, a name
#: character that is neither.
_UNICODE_EDGES = "²½·ï٣"

_TIGHT_LIMITS = XmlLimits(max_depth=3, max_text_length=6, max_entity_references=2)


def _tree(element):
    """Everything the parser decided about ``element``, as plain data."""
    return (
        (element.name.namespace, element.name.local),
        element.prefix_hint,
        list(element.nsscope.items()),
        [((name.namespace, name.local), value)
         for name, value in element.attributes.items()],
        [item if isinstance(item, str) else _tree(item) for item in element.content],
    )


def _outcome(parse, text, limits=None):
    try:
        document = parse(text, limits)
    except XmlParseError as exc:
        return ("rejected", type(exc), exc.message, getattr(exc, "limit", None),
                exc.position, exc.line, exc.column, str(exc))
    return ("accepted", document.version, document.encoding,
            document.standalone, _tree(document.root))


def assert_same(text, limits=None):
    expected = _outcome(reference.parse_document, text, limits)
    assert _outcome(parse_document, text, limits) == expected
    return expected[0]


@pytest.mark.parametrize("name", sorted(os.listdir(_GOLDEN_DIR)))
def test_golden_wsdls(name):
    with open(os.path.join(_GOLDEN_DIR, name), encoding="utf-8") as handle:
        assert assert_same(handle.read()) == "accepted"


def test_every_quick_corpus_wsdl():
    config = CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )
    campaign = Campaign(config)
    for server_id in config.server_ids:
        container = container_for(server_id)
        container.deploy_corpus(campaign.corpus_for(server_id))
        assert container.deployed
        for record in container.deployed:
            assert assert_same(record.wsdl_text) == "accepted", record.service.name


def test_seeded_mutants(base_texts):  # noqa: F811
    verdicts = [assert_same(mutant.text) for mutant in _mutants(base_texts)]
    assert len(verdicts) >= 500
    assert {"accepted", "rejected"} <= set(verdicts)


def test_seeded_mutants_under_tight_limits(base_texts):  # noqa: F811
    for mutant in _mutants(base_texts):
        assert_same(mutant.text, _TIGHT_LIMITS)


#: Every diagnostic the parser can raise, at least once inside content
#: where the token scan runs, and documents the character-by-character
#: path must accept.
_EDGE_CASES = (
    "", "text", "<>", "<a", "<a/ >", "<a></a", "<a x='1'/ >", "<a><1/></a>",
    "<a></1></a>", "<a><!x></a>", "<a x='1'y='2'/>", "<a x/>", "<a x=1/>",
    "<a x='1/>", "<a x='<'/>", "<a xmlns:p=''/>", "<a:b:c/>", "<:a/>",
    "<a:/>", "<a><b:c:d/></a>", "<p:a/>", "<a p:x='1'/>", "<a><p:b/></a>",
    "<a x='1' x='2'/>", "<a xmlns:p='u' xmlns:q='u' p:k='1' q:k='2'/>",
    "<a>", "<a>text", "<a><b></a>", "<a></ab>", "<a></a b>",
    "<a><!-- x</a>", "<!-- x", "<a><![CDATA[x</a>", "<a><?pi</a>", "<?pi",
    "<?xml version='1.0'", "<!DOCTYPE a <b", "<a/>x", "<a/><b/>",
    "<a>&nbsp;</a>", "<a x='&nbsp;'/>", "<a>&amp</a>", "<a x='&amp'/>",
    "<a>&#x110000;</a>", "<a x='&#-1;'/>", "<a>\n  <b>\n</a>",
    "<ï/>", "<a²/>", "<a·b/>", "<a٣ x='1'/>", "<ï></ï>", "<a x='²½'/>",
    "<a\n x = '1'\n/>", "<a></a >", "<a></a\n>", "\ufeff<a/>",
    "<?xml version='1.0'?><!DOCTYPE a><!-- c --><a/><!-- c --><?pi?>",
    "<a><![CDATA[]]></a>", "<a xmlns='urn:x'><b xmlns=''/></a>",
    "<a xmlns:p='u' xmlns:p='v'/>", "<a>x<!-- c -->y<?pi?>z</a>",
)

_LIMIT_EDGE_CASES = (
    ("<a><b><c><d/></c></b></a>", _TIGHT_LIMITS),
    ("<a>1234567</a>", _TIGHT_LIMITS),
    ("<a>123456</a>", _TIGHT_LIMITS),
    ("<a><![CDATA[1234567]]></a>", _TIGHT_LIMITS),
    ("<a x='1234567'/>", _TIGHT_LIMITS),
    ("<a>&amp;&amp;&amp;</a>", XmlLimits(max_entity_references=2)),
    ("<a x='&amp;&amp;&amp;'/>", XmlLimits(max_entity_references=2)),
    ("<a>&amp;&amp;</a>", XmlLimits(max_entity_references=2)),
)


@pytest.mark.parametrize("text", _EDGE_CASES)
def test_edge_cases(text):
    assert_same(text)


@pytest.mark.parametrize("text,limits", _LIMIT_EDGE_CASES)
def test_limit_edge_cases(text, limits):
    assert_same(text, limits)


# -- hypothesis: markup soup, and documents whole, damaged or cut short ---------

_PIECES = (
    "<", ">", "</", "/>", "/", "=", '"', "'", " ", "\n", "\t", "\r", ":",
    "&", ";", "#", "x", "a", "b", "p", "_", "-", ".", "1",
    "<a", "<p:a", "</a>", "</p:a>", "<b/>", ' x="1"', " x='1'", ' p:x="v"',
    ' xmlns="urn:d"', " xmlns=''", ' xmlns:p="urn:p"', ' xmlns:p=""',
    "&amp;", "&lt;", "&#65;", "&#x41;", "&#x110000;", "&nbsp;", "&#-5;",
    "<!--", "-->", "<![CDATA[", "]]>", "<?", "?>", "<?xml", "<!DOCTYPE",
    "\ufeff",
) + tuple(_UNICODE_EDGES)

markup_soup = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)

_name = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from("abp_ïÀ"),
    st.text(alphabet="ab19.-_" + _UNICODE_EDGES, max_size=4),
)
_qualified = st.builds(lambda prefix, name: prefix + name, st.sampled_from(["", "", "p:"]), _name)
_value = st.text(alphabet="v #x;" + _UNICODE_EDGES, max_size=6) | st.just("a&amp;&#65;b")
_text_piece = st.sampled_from((
    "t", " ", "\n  ", "&amp;", "&#65;", "&#x41;", "<!-- c -->",
    "<![CDATA[ <x> ]]>", "<![CDATA[]]>", "<?pi x?>",
) + tuple(_UNICODE_EDGES))
_damage = st.sampled_from((
    "<", ">", "&", "&bad;", "&#x110000;", "<!--", "<![CDATA[", "<?", "<!x>",
    '"', "=", "</z>", " p:q='1'", " q:r='1'", " xmlns:p=''", "/",
    # names that start with a character no name may start with
    "<1/>", "<-a/>", " 1='1'",
) + tuple(f"<{ch}/>" for ch in _UNICODE_EDGES) + tuple(f" {ch}a='1'" for ch in _UNICODE_EDGES))


@st.composite
def documents(draw, depth=2):
    """Well-formed elements whose names, values and text probe the edges."""
    name = draw(_qualified)
    quote = draw(st.sampled_from(['"', "'"]))
    attributes = ' xmlns:p="urn:p"' + draw(st.sampled_from(["", " xmlns='urn:d'", ' xmlns=""']))
    for attr in draw(st.lists(_qualified, max_size=3, unique=True)):
        space = draw(st.sampled_from([" ", "\n", "  "]))
        attributes += f"{space}{attr}={quote}{draw(_value)}{quote}"
    if depth == 0 or draw(st.booleans()):
        return f"<{name}{attributes}{draw(st.sampled_from(['/>', ' />']))}"
    content = "".join(draw(st.lists(documents(depth=depth - 1) | _text_piece, max_size=4)))
    return f"<{name}{attributes}>{content}</{name}{draw(st.sampled_from(['', ' ', chr(10)]))}>"


@st.composite
def damaged_documents(draw):
    """A document with one bad piece spliced in anywhere, even inside a tag."""
    text = draw(documents())
    index = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:index] + draw(_damage) + text[index:]


@st.composite
def truncated_documents(draw):
    """A document cut short, so the scan runs off the end mid-token."""
    text = draw(documents())
    return text[: draw(st.integers(min_value=0, max_value=len(text)))]


@given(text=markup_soup)
@settings(max_examples=400, deadline=None)
def test_markup_soup(text):
    assert_same(text)


@given(text=documents())
@settings(max_examples=400, deadline=None)
def test_documents(text):
    assert assert_same(text) == "accepted"


@given(text=damaged_documents())
@settings(max_examples=600, deadline=None)
def test_damaged_documents(text):
    assert_same(text)


@given(text=truncated_documents())
@settings(max_examples=300, deadline=None)
def test_truncated_documents(text):
    assert_same(text)


@given(text=documents() | damaged_documents() | markup_soup)
@settings(max_examples=300, deadline=None)
def test_under_tight_limits(text):
    assert_same(text, _TIGHT_LIMITS)


@given(value=st.text(alphabet=st.sampled_from(list("ab &<>\"'\n") + list(_UNICODE_EDGES))))
@settings(max_examples=300, deadline=None)
def test_escapes(value):
    assert escape_text(value) == reference.escape_text(value)
    assert escape_attribute(value) == reference.escape_attribute(value)
