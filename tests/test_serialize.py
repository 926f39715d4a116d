"""Event-stream XML writer: escaping, self-closing, errors, skeletons."""

import io
import xml.etree.ElementTree as ET

import pytest

from boltzxml import (
    DocNode,
    EndElement,
    SamplingError,
    StartElement,
    TextContent,
    doc_to_xml,
    events_from_doc,
    events_to_bytes,
    serialize_stream,
    skeleton_key,
)


def test_empty_element_self_closes():
    xml = events_to_bytes([StartElement("t"), EndElement("t")])
    assert xml == b"<t/>"


def test_nested_structure():
    doc = DocNode("a", (), (DocNode("b"), DocNode("b", (), ("hi",))))
    assert doc_to_xml(doc) == "<a><b/><b>hi</b></a>"


def test_attributes_in_order():
    doc = DocNode("a", (("x", "1"), ("y", "2")))
    assert doc_to_xml(doc) == '<a x="1" y="2"/>'


def test_text_escaping():
    doc = DocNode("a", (), ("x < y & z > w",))
    assert doc_to_xml(doc) == "<a>x &lt; y &amp; z &gt; w</a>"


def test_attribute_escaping():
    doc = DocNode("a", (("q", 'say "hi" & <go>'),))
    parsed = ET.fromstring(doc_to_xml(doc))
    assert parsed.get("q") == 'say "hi" & <go>'


def test_namespace_emission():
    xml = events_to_bytes(
        [StartElement("a", (), ns="http://x/y"), EndElement("a")]
    )
    assert xml == b'<a xmlns="http://x/y"/>'
    parsed = ET.fromstring(xml)
    assert parsed.tag == "{http://x/y}a"


def test_xml_declaration():
    xml = events_to_bytes(
        [StartElement("t"), EndElement("t")], xml_declaration=True
    )
    assert xml == b'<?xml version="1.0" encoding="UTF-8"?>\n<t/>'


def test_returned_byte_count():
    events = [
        StartElement("a", (("k", "v"),)),
        TextContent("body & soul"),
        EndElement("a"),
    ]
    sink = io.BytesIO()
    count = serialize_stream(events, sink)
    assert count == len(sink.getvalue())


def test_round_trip_through_etree():
    doc = DocNode(
        "root",
        (("id", "42"), ("note", "a&b")),
        (
            "lead ",
            DocNode("kid", (), ("one < two",)),
            " tail",
            DocNode("kid"),
        ),
    )
    parsed = ET.fromstring(doc_to_xml(doc))
    assert parsed.get("note") == "a&b"
    assert parsed.text == "lead "
    kids = list(parsed)
    assert kids[0].text == "one < two"
    assert kids[0].tail == " tail"


@pytest.mark.parametrize(
    "events,match",
    [
        ([StartElement("a"), EndElement("a"), StartElement("b"), EndElement("b")],
         "second root"),
        ([TextContent("loose")], "outside the root"),
        ([StartElement("a"), EndElement("b")], "does not match"),
        ([StartElement("a"), EndElement("a"), EndElement("a")], "no open element"),
        ([StartElement("a", (("k", "1"), ("k", "2")))], "duplicate attribute"),
        ([StartElement("a"), StartElement("b"), EndElement("b")], "unclosed"),
        ([], "no root"),
    ],
)
def test_malformed_streams(events, match):
    with pytest.raises(SamplingError, match=match):
        events_to_bytes(events)


def test_skeleton_masks_values_only():
    a = DocNode("a", (("k", "1"),), ("one", DocNode("b")))
    b = DocNode("a", (("k", "other"),), ("two", DocNode("b")))
    c = DocNode("a", (("j", "1"),), ("one", DocNode("b")))
    d = DocNode("a", (("k", "1"),), (DocNode("b"), "one"))
    key = lambda doc: skeleton_key(events_from_doc(doc))
    assert key(a) == key(b)
    assert key(a) != key(c)
    assert key(a) != key(d)


def test_hypothesis_text_round_trip():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # XML 1.0 valid chars, plus the whitespace a parser would normalize
    # if it were written raw
    text_chars = st.characters(
        min_codepoint=0x20,
        blacklist_categories=("Cs",),
        blacklist_characters="\ufffe\uffff",
    )
    texts = st.text(alphabet=text_chars | st.sampled_from("\t\n\r"),
                    min_size=1, max_size=40)

    @settings(max_examples=80, deadline=None)
    @given(text=texts | st.sampled_from(["\t", "\r\n", "mixed \t\n\r text"]),
           attr=texts)
    def round_trip(text, attr):
        doc = DocNode("a", (("k", attr),), (text,))
        parsed = ET.fromstring(doc_to_xml(doc).encode("utf-8"))
        assert parsed.text == text
        assert parsed.get("k") == attr

    round_trip()
