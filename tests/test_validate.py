"""Structural re-validation: accepts what the sampler can emit, rejects
mutations of it."""

import sys
import xml.etree.ElementTree as ET

import pytest

from boltzxml import (
    DocNode,
    GrammarError,
    doc_to_xml,
    enumerate_documents,
    matches,
    parse_grammar,
)
from boltzxml.ast import check_normal_form, from_canonical

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'


def g(body, extra=""):
    return parse_grammar('<grammar %s %s>%s</grammar>' % (RNG, extra, body))


def test_enumerated_documents_validate(grammars, systems):
    for name in grammars:
        for n in range(1, 7):
            for doc in enumerate_documents(
                grammars[name], n, system=systems[name]
            ):
                assert matches(grammars[name], doc), (name, n)
                root = ET.fromstring(doc_to_xml(doc).encode("utf-8"))
                assert matches(grammars[name], root), (name, n, "etree")


def test_wrong_root_name(grammars):
    assert not matches(grammars["ternary"], DocNode("s"))


def test_arity_mismatches(grammars):
    t = grammars["ternary"]
    leaf = DocNode("t")
    assert matches(t, leaf)
    assert matches(t, DocNode("t", (), (leaf, leaf, leaf)))
    assert not matches(t, DocNode("t", (), (leaf,)))
    assert not matches(t, DocNode("t", (), (leaf, leaf)))
    assert not matches(t, DocNode("t", (), (leaf,) * 4))


def test_wrong_child_name(grammars):
    t = grammars["ternary"]
    bad = DocNode("t", (), (DocNode("t"), DocNode("x"), DocNode("t")))
    assert not matches(t, bad)


def test_missing_required_attribute(grammars):
    attrs = grammars["attrs"]
    assert matches(attrs, DocNode("item", (("id", "7"),)))
    assert not matches(attrs, DocNode("item"))
    assert not matches(attrs, DocNode("item", (("lang", "en"),)))


def test_attributes_match_in_any_order(grammars):
    # XML gives attribute order no meaning (XML 1.0 section 3.1)
    attrs = grammars["attrs"]
    assert matches(attrs, DocNode("item", (("id", "7"), ("lang", "en"))))
    assert matches(attrs, DocNode("item", (("lang", "en"), ("id", "7"))))
    root = ET.fromstring(b'<item lang="en" id="7"/>')
    assert matches(attrs, root)
    # each declared attribute still takes one attribute of its name
    assert not matches(attrs, DocNode("item", (("id", "7"), ("id", "8"))))


def test_unexpected_extra_attribute(grammars):
    attrs = grammars["attrs"]
    assert not matches(attrs, DocNode("item", (("id", "7"), ("bogus", "x"))))


def test_lexical_content_is_not_checked(grammars):
    # values and text bodies are structure-free; any string passes
    attrs = grammars["attrs"]
    assert matches(attrs, DocNode("item", (("id", "not a number"),)))


def test_one_or_more_closure(grammars):
    om = grammars["oneormore"]
    entry = DocNode("entry")
    for k in (1, 2, 5):
        assert matches(om, DocNode("list", (), (entry,) * k)), k
    assert not matches(om, DocNode("list"))


def test_feed_optional_fields(grammars):
    feed = grammars["feed"]
    base = [DocNode("title"), DocNode("link"), DocNode("description")]

    def rss(items):
        return DocNode(
            "rss",
            (("version", "2.0"),),
            (DocNode("channel", (), tuple(base + items)),),
        )

    item_min = DocNode("item", (), (DocNode("title"),))
    item_full = DocNode(
        "item", (), (DocNode("title"), DocNode("link"), DocNode("pubDate"))
    )
    assert matches(feed, rss([]))
    assert matches(feed, rss([item_min, item_full]))
    # pubDate before link violates the declared order
    item_swapped = DocNode(
        "item", (), (DocNode("title"), DocNode("pubDate"), DocNode("link"))
    )
    assert not matches(feed, rss([item_swapped]))


def test_start_choice_accepts_both_roots():
    grammar = g(
        "<start><choice><ref name='a'/><ref name='b'/></choice></start>"
        '<define name="a"><element name="a"><empty/></element></define>'
        '<define name="b"><element name="b"><empty/></element></define>'
    )
    assert matches(grammar, DocNode("a"))
    assert matches(grammar, DocNode("b"))
    assert not matches(grammar, DocNode("c"))


def test_namespace_checked_when_both_sides_declare_it():
    grammar = g(
        '<start><element name="a"><empty/></element></start>',
        extra='ns="http://good/ns"',
    )
    good = ET.fromstring(b'<a xmlns="http://good/ns"/>')
    bad = ET.fromstring(b'<a xmlns="http://other/ns"/>')
    plain = DocNode("a")  # DocNode carries no namespace; not compared
    assert matches(grammar, good)
    assert not matches(grammar, bad)
    assert matches(grammar, plain)


def test_text_nodes_are_invisible_to_structure():
    grammar = g('<start><element name="a"><text/></element></start>')
    assert matches(grammar, DocNode("a", (), ("hello",)))
    assert matches(grammar, DocNode("a"))


def test_shared_subtrees_memoize():
    # one shared leaf object reused many times must stay linear
    grammar = g(
        "<start><ref name='t'/></start>"
        '<define name="t"><element name="t"><choice><empty/><group>'
        '<ref name="t"/><ref name="t"/><ref name="t"/>'
        "</group></choice></element></define>"
    )
    node = DocNode("t")
    for _ in range(200):
        node = DocNode("t", (), (node, DocNode("t"), DocNode("t")))
    assert matches(grammar, node)


def test_deep_documents_need_no_recursion_limit(monkeypatch):
    # a chain 50 000 elements deep, as a DocNode and as an etree element
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><attribute name="k"><text/>'
        '</attribute><optional><ref name="a"/></optional></element></define>'
    )
    depth = 50_000

    def refuse(limit):
        raise AssertionError("setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    node = DocNode("a", (("k", ""),))
    for _ in range(depth - 1):
        node = DocNode("a", (("k", ""),), (node,))
    assert matches(grammar, node)
    assert not matches(grammar, DocNode("a", (("k", ""),), (node, node)))
    text = b'<a k="">' * depth + b"</a>" * depth
    assert matches(grammar, ET.fromstring(text))


def test_inline_element_patterns():
    # from_canonical keeps an element pattern inside content as it is;
    # matches takes a grammar in normal form, which refuses it
    grammar = from_canonical(
        "start\n"
        '  ref "r"\n'
        'define "r"\n'
        '  element "r"\n'
        "    oneOrMore\n"
        '      element "c"\n'
        '        attribute "x"\n'
        "          text\n"
    )
    with pytest.raises(GrammarError, match="element 'c' is nested in a pattern"):
        check_normal_form(grammar)
    child = DocNode("c", (("x", "1"),))
    with pytest.raises(TypeError, match="unexpected pattern Element"):
        matches(grammar, DocNode("r", (), (child, child)))
