"""Wide and deep content models run through every stage at the default
recursion limit.

The parser makes an n-ary choice or group right-nested and binary, so a
wide content model is a deep one, and non-element definitions inlined
into one element nest as deep as their chain is long.  Each shape runs
parse, compile, solve, Sampler, sample_to_sink, matches, the counting
table and the canonical round trip, with sys.setrecursionlimit refusing
to be called."""

import io
import sys
import xml.etree.ElementTree as ET

import pytest

from boltzxml import (
    DocNode,
    EndElement,
    Sampler,
    SamplerConfig,
    SizeWindow,
    StartElement,
    TextContent,
    compile_grammar,
    count_coefficients,
    enumerate_documents,
    events_from_doc,
    matches,
    parse_grammar,
    solve,
)
from boltzxml.ast import depth_first, from_canonical, to_canonical

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'


def refuse_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


def grammar_text(start, defines=""):
    return "<grammar %s><start>%s</start>%s</grammar>" % (RNG, start, defines)


def values(n):
    return "".join("<value>v%d</value>" % i for i in range(n))


def attribute_of(n, combine):
    # an attribute whose content combines n values
    return grammar_text(
        '<element name="a"><attribute name="k"><%s>%s</%s></attribute></element>'
        % (combine, values(n), combine)
    )


def record(n):
    # an element holding n required children
    return grammar_text(
        '<element name="r">%s</element>' % ('<ref name="c"/>' * n),
        '<define name="c"><element name="c"><empty/></element></define>',
    )


def chain(n, pattern):
    """An element holding d0, where non-element definitions d0 ... d(n-1)
    each hold pattern around a reference to the next; d(n) is last."""
    defines = "".join(
        '<define name="d%d">%s</define>'
        % (i, pattern.replace("{i}", str(i)).replace("{next}", str(i + 1)))
        for i in range(n)
    )
    defines += '<define name="d%d"><element name="e"><empty/></element></define>' % n
    return grammar_text('<element name="top"><ref name="d0"/></element>', defines)


ALTERNATING = (
    '<choice><attribute name="a{i}"/>'
    '<group><attribute name="b{i}"/><ref name="d{next}"/></group></choice>'
)
REPEATED = '<oneOrMore><ref name="d{next}"/></oneOrMore>'

# (grammar text, x, window n, window epsilon)
SHAPES = {
    "enumeration-1200": (attribute_of(1200, "choice"), 0.5, 2, 0.0),
    "record-1200": (record(1200), 0.5, 1201, 0.0),
    "alternating-1500": (chain(1500, ALTERNATING), 0.3, 10, 1.0),
    "alternating-3000": (chain(3000, ALTERNATING), 0.3, 10, 1.0),
    # the repetitions' weights compound, so x stays below 1 / 1500
    "repetition-1500": (chain(1500, REPEATED), 3e-4, 3, 1.0),
    "value-group-1500": (attribute_of(1500, "group"), 0.5, 2, 0.0),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_wide_and_deep_content_models(name, monkeypatch):
    text, x, n, epsilon = SHAPES[name]
    refuse_recursion_limit(monkeypatch)
    grammar = parse_grammar(text)
    system = compile_grammar(grammar)
    sampler = Sampler(grammar, solve(system, x), system=system)
    sink = io.BytesIO()
    config = SamplerConfig(window=SizeWindow(n, epsilon), seed=3)
    stats = sampler.sample_to_sink(config, sink)
    assert matches(grammar, ET.fromstring(sink.getvalue()))
    assert stats.size >= sampler.min_size
    counts = count_coefficients(system, 5).series()
    first = next((k for k, c in enumerate(counts) if c), None)
    assert first == (sampler.min_size if sampler.min_size <= 5 else None)
    canonical = to_canonical(grammar)
    assert to_canonical(from_canonical(canonical)) == canonical


@pytest.mark.parametrize("combine", ["choice", "group"])
def test_a_long_value_chain_inside_an_attribute_enumerates(combine, monkeypatch):
    refuse_recursion_limit(monkeypatch)
    docs = enumerate_documents(parse_grammar(attribute_of(1500, combine)), 2)
    if combine == "choice":
        expected = ["v%d" % i for i in range(1500)]
    else:
        expected = ["".join("v%d" % i for i in range(1500))]
    assert [doc.attrs[0][1] for doc in docs] == expected


def test_deeply_nested_divs_parse(monkeypatch):
    refuse_recursion_limit(monkeypatch)
    define = '<define name="a"><element name="a"><empty/></element></define>'
    text = grammar_text(
        '<ref name="a"/>', '<div ns="urn:x">' * 3000 + define + "</div>" * 3000
    )
    grammar = parse_grammar(text)
    assert list(grammar.defines) == ["a"]
    assert grammar.defines["a"].ns == "urn:x"


def test_a_deep_document_streams_its_events(monkeypatch):
    refuse_recursion_limit(monkeypatch)
    doc = DocNode("leaf", (("k", "v"),), ("text",))
    for depth in range(4999):
        doc = DocNode("n%d" % depth, (), (doc,))
    events = list(events_from_doc(doc))
    names = ["n%d" % depth for depth in reversed(range(4999))] + ["leaf"]
    assert events == [
        *(StartElement(name, ()) for name in names[:-1]),
        StartElement("leaf", (("k", "v"),)),
        TextContent("text"),
        *(EndElement(name) for name in reversed(names)),
    ]


def test_a_long_chain_searches_depth_first(monkeypatch):
    refuse_recursion_limit(monkeypatch)
    edges = {i: [i + 1] for i in range(4999)}
    edges[4999] = []
    assert depth_first([0], edges.__getitem__) == (
        list(range(5000)), list(reversed(range(5000))), None
    )
    edges[4999] = [4997, 0]
    assert depth_first([0], edges.__getitem__)[2] == [4997, 4998, 4999, 4997]
