"""XML event stream model and incremental serialization.

Documents are streams of StartElement / TextContent / EndElement events.
serialize_stream writes a stream to a binary sink as it arrives: its state
is one pending start tag and a depth counter, so memory use is independent
of document size.  It serves event lists: sample_in_window and free_sample
results, enumerated documents, and sample_to_sink for grammars whose
attributes can follow content.  sample_to_sink on all other grammars
writes bytes straight from the generating walk, with the same escaping
helpers (_esc_text, _esc_attr) and the same rules, so both routes give the
same bytes for the same document.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import BytesIO
from typing import NamedTuple

from .errors import SamplingError

__all__ = [
    "StartElement",
    "EndElement",
    "TextContent",
    "DocNode",
    "serialize_stream",
    "events_to_bytes",
    "events_from_doc",
    "doc_to_xml",
    "skeleton_key",
]


class StartElement(NamedTuple):
    name: str
    attributes: tuple = ()  # ((name, value), ...) in generation order
    ns: "str | None" = None


class EndElement(NamedTuple):
    name: str


class TextContent(NamedTuple):
    text: str


@dataclass(frozen=True)
class DocNode:
    """In-memory document tree used by enumeration and the validator."""

    name: str
    attrs: tuple = ()
    children: tuple = ()  # DocNode and str members


XML_DECLARATION = b'<?xml version="1.0" encoding="UTF-8"?>\n'


# A parser turns a raw CR into LF, and a raw tab, LF or CR inside an
# attribute value into a space; character references survive both.


def _esc_text(s):
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _esc_attr(s):
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def serialize_stream(events, sink, *, xml_declaration=False):
    """Write an event stream to a binary sink; return the byte count.

    Raises SamplingError on malformed streams: mismatched end tags,
    text outside the root, or a repeated attribute name in one start tag
    (the first repetition in attribute order is reported).
    """
    written = 0

    def out(text):
        nonlocal written
        data = text.encode("utf-8")
        sink.write(data)
        written += len(data)

    if xml_declaration:
        sink.write(XML_DECLARATION)
        written += len(XML_DECLARATION)

    open_name = None  # start tag emitted but not yet closed with > or />
    depth = 0
    done_root = False

    for event in events:
        if isinstance(event, StartElement):
            if depth == 0 and done_root:
                raise SamplingError("second root element in stream")
            if open_name is not None:
                out(">")
                open_name = None
            seen = set()
            for name, _ in event.attributes:
                if name in seen:
                    raise SamplingError(
                        "duplicate attribute %r on element %r" % (name, event.name)
                    )
                seen.add(name)
            parts = ["<", event.name]
            if event.ns:
                parts.append(' xmlns="%s"' % _esc_attr(event.ns))
            for name, value in event.attributes:
                parts.append(' %s="%s"' % (name, _esc_attr(value)))
            out("".join(parts))
            open_name = event.name
            depth += 1
        elif isinstance(event, TextContent):
            if depth == 0:
                raise SamplingError("text content outside the root element")
            if open_name is not None:
                out(">")
                open_name = None
            out(_esc_text(event.text))
        elif isinstance(event, EndElement):
            if depth == 0:
                raise SamplingError("end tag %r with no open element" % event.name)
            if open_name is not None:
                if open_name != event.name:
                    raise SamplingError(
                        "end tag %r does not match open tag %r"
                        % (event.name, open_name)
                    )
                out("/>")
                open_name = None
            else:
                out("</%s>" % event.name)
            depth -= 1
            if depth == 0:
                done_root = True
        else:
            raise SamplingError("unknown event %r" % (event,))
    if depth != 0:
        raise SamplingError("stream ended with %d unclosed element(s)" % depth)
    if not done_root:
        raise SamplingError("stream produced no root element")
    return written


def events_to_bytes(events, *, xml_declaration=False):
    buf = BytesIO()
    serialize_stream(events, buf, xml_declaration=xml_declaration)
    return buf.getvalue()


def events_from_doc(doc):
    """Depth-first event stream of a DocNode tree."""
    yield StartElement(doc.name, tuple(doc.attrs))
    for child in doc.children:
        if isinstance(child, str):
            yield TextContent(child)
        else:
            yield from events_from_doc(child)
    yield EndElement(doc.name)


def doc_to_xml(doc):
    return events_to_bytes(events_from_doc(doc)).decode("utf-8")


def skeleton_key(events):
    """Canonical string for a document's structure.

    Tag names and ordered attribute names are kept, text and attribute
    values are masked, so two samples agree exactly when they are the same
    document up to leaf values."""
    parts = []
    for event in events:
        if isinstance(event, StartElement):
            attrs = ",".join(n for n, _ in event.attributes)
            parts.append("(%s[%s]" % (event.name, attrs))
        elif isinstance(event, TextContent):
            parts.append("#")
        else:
            parts.append(")")
    return "".join(parts)
