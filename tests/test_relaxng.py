"""Grammar reading, simplification rewrites, and the canonical dump format."""

import pytest

from boltzxml import GrammarError, parse_grammar
from boltzxml.ast import (
    Attribute,
    Choice,
    Data,
    Element,
    Empty,
    Grammar,
    Group,
    NotAllowed,
    OneOrMore,
    Ref,
    Text,
    Value,
    check_normal_form,
    depth_first,
    from_canonical,
    reachable,
    to_canonical,
)

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'


def g(body):
    return parse_grammar('<grammar %s>%s</grammar>' % (RNG, body))


# ---------------------------------------------------------------------------
# rewrites into the simple form


def test_ternary_normal_form(grammars):
    t = grammars["ternary"].defines["t"]
    assert t == Element(
        "t",
        Choice(Empty(), Group(Ref("t"), Group(Ref("t"), Ref("t")))),
    )


def test_start_is_a_ref(grammars):
    for name, grammar in grammars.items():
        assert isinstance(grammar.start, Ref), name
        check_normal_form(grammar)


def test_zero_or_more_rewrite():
    grammar = g(
        '<start><element name="a"><zeroOrMore><element name="b">'
        "<empty/></element></zeroOrMore></element></start>"
    )
    content = grammar.defines["a"].content
    assert content == Choice(Empty(), OneOrMore(Ref("b")))


def test_optional_rewrite():
    grammar = g(
        '<start><element name="a"><optional><element name="b">'
        "<empty/></element></optional></element></start>"
    )
    assert grammar.defines["a"].content == Choice(Empty(), Ref("b"))


def test_interleave_becomes_group():
    grammar = g(
        '<start><element name="a"><interleave>'
        '<element name="b"><empty/></element>'
        '<element name="c"><empty/></element>'
        "</interleave></element></start>"
    )
    assert grammar.defines["a"].content == Group(Ref("b"), Ref("c"))


def test_mixed_rewrite():
    grammar = g(
        '<start><element name="a"><mixed><element name="b">'
        "<empty/></element></mixed></element></start>"
    )
    assert grammar.defines["a"].content == Group(Text(), Ref("b"))


def test_nary_choice_folds_right():
    grammar = g(
        '<start><element name="a"><choice>'
        "<text/><empty/><text/>"
        "</choice></element></start>"
    )
    assert grammar.defines["a"].content == Choice(Text(), Choice(Empty(), Text()))


def test_attribute_default_content_is_text():
    grammar = g(
        '<start><element name="a"><attribute name="k"/></element></start>'
    )
    assert grammar.defines["a"].content == Attribute("k", Text())


def test_value_default_type_is_token():
    grammar = g(
        '<start><element name="a"><attribute name="k">'
        "<value>hello</value></attribute></element></start>"
    )
    assert grammar.defines["a"].content == Attribute("k", Value("token", "hello"))


def test_data_with_params():
    grammar = g(
        '<start><element name="a"><data type="string">'
        '<param name="maxLength">5</param></data></element></start>'
    )
    assert grammar.defines["a"].content == Data("string", (("maxLength", "5"),))


def test_inline_elements_are_hoisted():
    grammar = g(
        '<start><element name="root">'
        '<element name="kid"><empty/></element>'
        "</element></start>"
    )
    assert set(grammar.defines) == {"root", "kid"}
    assert grammar.defines["root"].content == Ref("kid")


def test_hoisted_names_are_uniquified():
    # two distinct inline elements share a name: defines must not collide
    grammar = g(
        '<start><element name="root">'
        '<group><element name="x"><empty/></element>'
        '<element name="x"><text/></element></group>'
        "</element></start>"
    )
    names = set(grammar.defines) - {"root"}
    assert len(names) == 2
    contents = {grammar.defines[n].content for n in names}
    assert contents == {Empty(), Text()}


def test_non_element_defines_are_inlined():
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><ref name="body"/></element></define>'
        '<define name="body"><choice><empty/><ref name="a"/></choice></define>'
    )
    assert set(grammar.defines) == {"a"}
    assert grammar.defines["a"].content == Choice(Empty(), Ref("a"))


def test_unreachable_defines_are_pruned():
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><empty/></element></define>'
        '<define name="b"><element name="b"><empty/></element></define>'
    )
    assert set(grammar.defines) == {"a"}


def test_reachable_definitions_come_depth_first_in_preorder():
    defines = {
        "a": Element("a", Group(Ref("c"), Ref("b"))),
        "b": Element("b", OneOrMore(Ref("d"))),
        "c": Element("c", Choice(Ref("b"), Empty())),
        "d": Element("d", Ref("a")),
        "e": Element("e", Ref("a")),
    }
    assert reachable(Choice(Ref("a"), Ref("d")), defines) == ["a", "c", "b", "d"]
    assert reachable(Ref("e"), defines) == ["e", "a", "c", "b", "d"]
    assert reachable(NotAllowed(), defines) == []


def test_depth_first_gives_both_orders_and_the_first_cycle():
    # a diamond a-b-d, a-c-d; c loops on itself; d is reached twice; a is
    # a root twice and is reached again from e, which f closes a cycle on
    edges = {"a": "bc", "b": "d", "c": "dc", "d": "", "e": "af", "f": "e"}
    assert depth_first("aae", edges.__getitem__) == (
        list("abdcef"), list("dbcafe"), ["c", "c"]
    )
    # the path starts at the node the back edge enters, and a later back
    # edge does not replace it
    edges = {"x": "a", "a": "b", "b": "c", "c": "ax"}
    assert depth_first("x", edges.__getitem__) == (
        list("xabc"), list("cbax"), list("abca")
    )
    assert depth_first("ba", {"a": "b", "b": ""}.__getitem__) == (
        ["b", "a"], ["b", "a"], None
    )
    assert depth_first((), edges.__getitem__) == ([], [], None)


def test_element_ns_inherited_from_grammar():
    grammar = parse_grammar(
        '<grammar %s ns="http://example.org/v"><start>'
        '<element name="a"><attribute name="k"/></element>'
        "</start></grammar>" % RNG
    )
    elem = grammar.defines["a"]
    assert elem.ns == "http://example.org/v"
    # ns does not leak onto attributes
    assert elem.content.ns is None


def test_combine_choice():
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><ref name="c"/></element></define>'
        '<define name="c" combine="choice"><empty/></define>'
        '<define name="c" combine="choice"><text/></define>'
    )
    assert grammar.defines["a"].content == Choice(Empty(), Text())


def test_combine_value_is_whitespace_stripped():
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><ref name="c"/></element></define>'
        '<define name="c" combine=" choice"><empty/></define>'
        '<define name="c" combine="choice "><text/></define>'
    )
    assert grammar.defines["a"].content == Choice(Empty(), Text())


def test_top_level_pattern_shorthand():
    # a bare pattern document is wrapped in grammar/start
    grammar = parse_grammar('<element name="a" %s><empty/></element>' % RNG)
    assert grammar.start == Ref("a")
    assert grammar.defines["a"].content == Empty()


# ---------------------------------------------------------------------------
# rejected inputs carry positions


def err(body):
    with pytest.raises(GrammarError) as info:
        g(body)
    return info.value


def test_malformed_xml():
    with pytest.raises(GrammarError) as info:
        parse_grammar("<grammar><start>")
    e = info.value
    assert "malformed XML" in str(e)
    assert e.line is not None


def test_unknown_element():
    e = err('<start><element name="a"><bogus/></element></start>')
    assert "bogus" in str(e)
    assert e.line is not None


def test_dangling_ref():
    e = err('<start><element name="a"><ref name="ghost"/></element></start>')
    assert "ghost" in str(e)
    assert e.line is not None


def test_recursion_without_element_guard():
    e = err(
        "<start><ref name='root'/></start>"
        '<define name="root"><element name="r"><ref name="a"/></element></define>'
        '<define name="a"><choice><empty/><ref name="b"/></choice></define>'
        '<define name="b"><group><ref name="a"/><ref name="a"/></group></define>'
    )
    msg = str(e)
    assert "recursive definition without an intervening element" in msg
    assert "a -> b -> a" in msg or "b -> a -> b" in msg


@pytest.mark.parametrize(
    "body,feature",
    [
        ('<start><element name="a"><list><text/></list></element></start>', "list"),
        (
            '<start><element name="a"><externalRef href="x.rng"/></element></start>',
            "externalRef",
        ),
        ('<start><element><anyName/><empty/></element></start>', "anyName"),
        (
            '<start><element><nsName ns="http://x"/><empty/></element></start>',
            "nsName",
        ),
        (
            '<start><element name="a"><data type="string">'
            "<except><value>no</value></except></data></element></start>",
            "except",
        ),
    ],
)
def test_unsupported_features(body, feature):
    e = err(body)
    assert "unsupported" in str(e)
    assert feature in str(e)
    assert e.line is not None


def test_element_inside_attribute():
    e = err(
        '<start><element name="a"><attribute name="k">'
        '<element name="b"><empty/></element>'
        "</attribute></element></start>"
    )
    assert "attribute" in str(e)
    assert e.line is not None


def test_ref_to_element_inside_attribute():
    e = err(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a">'
        '<attribute name="k"><ref name="b"/></attribute>'
        "</element></define>"
        '<define name="b"><element name="b"><empty/></element></define>'
    )
    assert "attribute" in str(e)
    assert e.line is not None


def test_start_must_generate_an_element():
    e = err("<start><text/></start>")
    assert "start" in str(e)
    assert e.line is not None


def test_missing_start():
    e = err('<define name="a"><element name="a"><empty/></element></define>')
    assert "start" in str(e)


def test_duplicate_define_without_combine():
    e = err(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><empty/></element></define>'
        '<define name="a"><element name="a"><text/></element></define>'
    )
    assert "a" in str(e)


def test_combine_value_must_be_choice_or_interleave():
    e = err(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><ref name="c"/></element></define>'
        '<define name="c" combine="bogus"><empty/></define>'
        '<define name="c" combine="bogus"><text/></define>'
    )
    assert "'bogus'" in str(e)
    assert "choice or interleave" in str(e)
    assert e.line is not None


def _chain(length, last):
    """A start reference to d0, definitions d0 -> d1 -> ... that are only
    references, and d<length> = last."""
    return (
        '<start><ref name="d0"/></start>'
        + "".join(
            '<define name="d%d"><ref name="d%d"/></define>' % (i, i + 1)
            for i in range(length)
        )
        + '<define name="d%d">%s</define>' % (length, last)
    )


def test_a_long_chain_of_non_element_definitions_parses():
    # resolved with an explicit stack: the recursive inliner raised
    # RecursionError from about 600 definitions
    grammar = g(_chain(3000, '<element name="e"><text/></element>'))
    assert grammar.start == Ref("d3000")
    assert list(grammar.defines) == ["d3000"]


def nested_optional_attributes(n, innermost=""):
    return '<element name="r">%s%s%s</element>' % (
        "".join('<optional><attribute name="a%d"/>' % i for i in range(n)),
        innermost,
        "</optional>" * n,
    )


def test_deeply_nested_patterns_parse():
    # built with an explicit stack: the recursive builder raised
    # RecursionError from about 300 levels
    grammar = g("<start>%s</start>" % nested_optional_attributes(3000))
    (body,) = grammar.defines.values()
    depth, node = 0, body.content
    while isinstance(node, Choice):
        depth += 1
        node = node.right.right if isinstance(node.right, Group) else node.right
    assert depth == 3000


def test_the_first_error_in_document_order_is_reported():
    # a node is checked before its children, and siblings left to right
    e = err('<start><element name="a"><choice/><bogus/></element></start>')
    assert "choice needs at least one pattern" in str(e)
    e = err(
        "<start><element name='a'>\n<optional><data/></optional>\n"
        "<ref/></element></start>"
    )
    assert "data pattern has no type attribute" in str(e) and e.line == 2
    deep = nested_optional_attributes(2000, "\n<bogus/><ref/>")
    e = err("<start>%s</start>" % deep)
    assert "unknown RELAX NG element 'bogus'" in str(e) and e.line == 2
    e = err("<start><attribute name='1x'><bogus/></attribute></start>")
    assert "invalid attribute name '1x'" in str(e)


def test_a_long_cycle_of_non_element_definitions_is_located():
    text = "<grammar %s>%s</grammar>" % (RNG, _chain(2999, '<ref name="d0"/>'))
    with pytest.raises(GrammarError) as info:
        parse_grammar(text)
    chain = " -> ".join("d%d" % i for i in range(3000))
    assert info.value.message == (
        "recursive definition without an intervening element: %s -> d0" % chain
    )
    # at the body of d0, where the cycle closes
    at = text.index('<ref name="d1"/>') + 1
    assert (info.value.line, info.value.column) == (1, at)


_DUPLICATE_K = "duplicate attribute 'k' on element 'a'"


@pytest.mark.parametrize(
    "body",
    [
        '<start><element name="a"><interleave><attribute name="k"/><text/>'
        '\n<attribute name="k"/></interleave></element></start>',
        '<start><element name="a"><ref name="ks"/></element></start>'
        '<define name="ks" combine="interleave"><attribute name="k"/></define>'
        '\n<define name="ks" combine="interleave"><attribute name="k"/></define>',
        '<start><element name="a"><attribute name="k"/><mixed>'
        '\n<attribute name="k"/></mixed></element></start>',
        '<start><element name="a"><optional><attribute name="k"/></optional>'
        '\n<optional><attribute name="k"/></optional></element></start>',
        '<start><element name="a"><attribute name="k"/><optional>'
        '\n<attribute name="k"/></optional></element></start>',
        '<start><element name="a"><group><text/><group><attribute name="j"/>'
        '<attribute name="k"/></group></group><group><empty/>'
        '\n<attribute name="k"/></group></element></start>',
    ],
    ids=[
        "interleave", "combine-interleave", "mixed", "optional-both",
        "optional-one", "nested-groups",
    ],
)
def test_duplicate_attributes_are_refused_at_parse_time(body):
    # RELAX NG section 7.3: one name on two sides of a group, however
    # sugar builds the group, is refused at the second attribute
    e = err(body)
    assert e.message == _DUPLICATE_K
    assert e.line == 2


def test_attribute_names_that_cannot_meet_parse():
    # one name in two branches of a choice, or on an element and its child
    grammar = g(
        '<start><element name="a"><choice><attribute name="k"/>'
        '<attribute name="k"/></choice><element name="b"><attribute name="k"/>'
        "</element></element></start>"
    )
    assert check_normal_form(grammar) == frozenset()


def test_check_normal_form_returns_the_late_definitions():
    # a late element can take an attribute after content: text, data, a
    # value or a reference before it, on one side of a group
    grammar = g(
        '<start><ref name="a"/></start>'
        '<define name="a"><element name="a"><attribute name="k"/><ref name="b"/>'
        "<optional><ref name='c'/></optional></element></define>"
        '<define name="b"><element name="b"><ref name="c"/><optional>'
        '<attribute name="k"/></optional></element></define>'
        '<define name="c"><element name="c"><choice><text/><empty/></choice>'
        '<zeroOrMore><ref name="c"/></zeroOrMore><choice><empty/>'
        '<attribute name="j"/></choice></element></define>'
    )
    assert check_normal_form(grammar) == {"b", "c"}


def test_bad_name_token():
    e = err('<start><element name="1bad"><empty/></element></start>')
    assert "name" in str(e)


def test_one_or_more_attribute_rejected():
    # repeated attributes cannot be serialized; refused at parse time
    e = err(
        '<start><element name="a"><oneOrMore>'
        '<attribute name="k"/></oneOrMore></element></start>'
    )
    assert "attribute" in str(e)


# one normal-form check, for parsed and for AST-built grammars alike

_DEFINE_A = 'start\n  ref "a"\ndefine "a"\n  element "a"\n'
_RNG_A = "<start><ref name='a'/></start><define name='a'><element name='a'>%s</element></define>"


@pytest.mark.parametrize(
    "text,body,message",
    [
        (
            "start\n  text\n",
            "<start><text/></start>",
            "start pattern must be a choice of element patterns, found text",
        ),
        (
            'start\n  ref "ghost"\n',
            "<start><ref name='ghost'/></start>",
            "reference to undefined pattern 'ghost'",
        ),
        (
            _DEFINE_A + '    attribute "k"\n      ref "a"\n',
            _RNG_A % "<attribute name='k'><ref name='a'/></attribute>",
            "attribute 'k' contains an element pattern",
        ),
        (
            _DEFINE_A + '    attribute "k"\n      element "b"\n        empty\n',
            _RNG_A % "<attribute name='k'><element name='b'><empty/></element></attribute>",
            "attribute 'k' contains an element pattern",
        ),
        (
            _DEFINE_A + '    attribute "k"\n      attribute "j"\n        text\n',
            _RNG_A % "<attribute name='k'><attribute name='j'/></attribute>",
            "attribute 'k' contains another attribute",
        ),
        (
            _DEFINE_A + '    oneOrMore\n      attribute "k"\n        text\n',
            _RNG_A % "<oneOrMore><attribute name='k'/></oneOrMore>",
            "attribute 'k' inside oneOrMore would repeat",
        ),
    ],
    ids=[
        "bad-start",
        "dangling-ref",
        "ref-in-attribute",
        "element-in-attribute",
        "attribute-in-attribute",
        "attribute-under-oneOrMore",
    ],
)
def test_check_normal_form_rules(text, body, message):
    with pytest.raises(GrammarError) as info:
        check_normal_form(from_canonical(text))
    assert info.value.message == message
    parsed = err(body)
    assert parsed.message == message
    assert parsed.line is not None


def test_element_occurs_only_as_a_definition_body():
    # hoisting gives every nested element its own definition, so parsed
    # grammars never break this rule; AST-built ones can, and the compiler
    # would refuse them without a location
    grammar = from_canonical(
        _DEFINE_A + "    choice\n      empty\n      element \"b\"\n        empty\n"
    )
    message = (
        "element 'b' is nested in a pattern; an element occurs only as a "
        "definition body"
    )
    with pytest.raises(GrammarError) as info:
        check_normal_form(grammar)
    assert info.value.message == message
    located = Grammar(
        Ref("a"),
        {"a": Element("a", Choice(Empty(), Element("b", Empty(), loc=(3, 7))))},
        source="g.rng",
    )
    with pytest.raises(GrammarError) as info:
        check_normal_form(located)
    assert str(info.value) == "g.rng:3:7: " + message


# ---------------------------------------------------------------------------
# canonical text round-trip


def test_canonical_round_trip_bundled(grammars):
    for name, grammar in grammars.items():
        text = to_canonical(grammar)
        back = from_canonical(text)
        assert back == grammar, name
        assert to_canonical(back) == text, name


def test_canonical_quotes_awkward_names():
    grammar = Grammar(
        start=Ref("a"),
        defines={
            "a": Element(
                'sp ace"quote',
                Choice(Value("token", 'li"ne'), Data("string", (("k", "v w"),))),
                ns="http://x/y?z=1",
            )
        },
    )
    text = to_canonical(grammar)
    assert from_canonical(text) == grammar


def test_canonical_reports_line_on_garbage():
    with pytest.raises(ValueError) as info:
        from_canonical("start\n  ref \"a\"\nwat {\n")
    assert "3" in str(info.value)


def test_hypothesis_canonical_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    names = st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs", "Cc"), blacklist_characters="\\"
        ),
        min_size=1,
        max_size=8,
    )

    leaves = st.one_of(
        st.builds(Empty),
        st.builds(Text),
        st.builds(NotAllowed),
        st.builds(Value, names, names),
        st.builds(
            Data,
            names,
            st.lists(st.tuples(names, names), max_size=2).map(tuple),
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(Choice, children, children),
            st.builds(Group, children, children),
            st.builds(OneOrMore, children),
            st.builds(Attribute, names, children),
            st.builds(Ref, st.sampled_from(["a", "b"])),
        )

    patterns = st.recursive(leaves, extend, max_leaves=12)

    @settings(max_examples=60, deadline=None)
    @given(pa=patterns, pb=patterns, ns=st.none() | names)
    def round_trip(pa, pb, ns):
        grammar = Grammar(
            start=Ref("a"),
            defines={"a": Element("a", pa, ns=ns), "b": Element("b", pb)},
        )
        text = to_canonical(grammar)
        assert from_canonical(text) == grammar

    round_trip()
