"""sample_to_sink on grammars with late elements.

A late element is one whose attributes can follow its content, so its
start tag is complete only when it ends.  The writer walk holds back the
bytes beneath the outermost open late element in one region buffer and
writes everything else straight to the sink.  Its bytes and byte count
must equal serialize_stream's over the events of an independent reference
walk for the same seed and window, and so must the bytes of
sample_in_window's events; a late element deep in a document must not
hold back the rest of it; and a deep chain of late elements must cost
time and memory linear in its length."""

import io
import math
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from boltzxml import (
    EndElement,
    Sampler,
    SamplerConfig,
    SizeWindow,
    StartElement,
    TextContent,
    compile_grammar,
    events_to_bytes,
    parse_grammar,
    parse_grammar_file,
    serialize_stream,
    solve,
)
from boltzxml.cli import EXIT_INPUT, main
from boltzxml.errors import GrammarError, SamplingError

from reference_walk import reference_events

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'
SCHEMA = Path(__file__).parent / "data" / "schema-4-16-8.rng"


def g(body):
    return parse_grammar("<grammar %s>%s</grammar>" % (RNG, body))


def make_sampler(grammar, x):
    system = compile_grammar(grammar)
    return Sampler(grammar, solve(system, x), system=system)


def reference_sample(sampler, config):
    """The events of the document sample_to_sink writes for config."""
    window = config.window
    rng_s, seed_v = sampler._streams(config.seed)
    sampler._accept_attempt(
        rng_s, window.lower, window.upper, config.max_attempts, Counter()
    )
    registry = sampler.registry_for(config.registry)
    rng_v = random.Random(seed_v)
    return reference_events(sampler, rng_s, rng_v, window.upper, registry)[0]


def both_routes(sampler, config, **kwargs):
    """(sample_to_sink bytes, its stats, serialize_stream bytes of the
    reference walk's events), after checking that sample_in_window's
    events give those bytes too."""
    sink = io.BytesIO()
    stats = sampler.sample_to_sink(config, sink, **kwargs)
    expected = events_to_bytes(reference_sample(sampler, config), **kwargs)
    events = sampler.sample_in_window(config).events
    assert events_to_bytes(events, **kwargs) == expected
    return sink.getvalue(), stats, expected


class CountingSink:
    """Counts bytes and elements and notes the time of the first write."""

    def __init__(self):
        self.n = self.elements = 0
        self.first_write = None

    def write(self, data):
        if self.first_write is None and data:
            self.first_write = time.perf_counter()
        self.n += len(data)
        # escaped text and values hold no '<'
        self.elements += data.count(b"<") - data.count(b"</")
        return len(data)


class DiscardSink:
    """Keeps nothing, so a traced peak is the writer's own."""

    write = len


def traced_peak(write):
    tracemalloc.start()
    try:
        write(DiscardSink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_schema_streams_like_the_serializer():
    grammar = parse_grammar_file(SCHEMA)
    system = compile_grammar(grammar)
    sampler = Sampler(grammar, solve(system, "auto"), system=system)
    assert sampler.late
    window = SizeWindow(200, 0.1)
    for seed in range(80):
        data, stats, expected = both_routes(
            sampler, SamplerConfig(window=window, seed=seed)
        )
        assert data == expected, seed
        assert stats.bytes_written == len(expected), seed


# name -> (grammar body, x, window, late definitions)
GRAMMARS = {
    # the root is late; its children are not
    "late-root": (
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><zeroOrMore><ref name="b"/>'
        '</zeroOrMore><attribute name="k"/></element></define>'
        '<define name="b"><element name="b"><optional><attribute name="m"/>'
        "</optional><text/></element></define>",
        0.4, SizeWindow(8, 0.5), {"a"},
    ),
    # late elements inside late elements, attributes before, between and
    # after children
    "late-in-late": (
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><optional><attribute name="p">'
        '<data type="integer"/></attribute></optional><zeroOrMore>'
        '<ref name="a"/></zeroOrMore><attribute name="k"/><optional>'
        '<ref name="c"/></optional>'
        '<optional><attribute name="m"><data type="token"/></attribute>'
        "</optional></element></define>"
        '<define name="c"><element name="c"><empty/></element></define>',
        0.25, SizeWindow(20, 0.5), {"a"},
    ),
    # a late element under a root that is not late, beside text
    "late-inner": (
        "<start><element name='r'><oneOrMore><ref name='l'/><optional><text/>"
        "</optional></oneOrMore></element></start>"
        '<define name="l"><element name="l"><optional><ref name="l"/>'
        '</optional><optional><value>v&amp;w</value></optional>'
        '<attribute name="k"><choice><value>a"b</value><data type="token"/>'
        "</choice></attribute></element></define>",
        0.25, SizeWindow(12, 0.5), {"l"},
    ),
    "late-namespaced": (
        '<start><element name="a" ns="urn:x&amp;&quot;y"><optional>'
        "<ref name='a'/></optional><attribute name='k'/></element></start>"
        '<define name="a"><element name="a" ns="urn:x&amp;&quot;y">'
        "<optional><ref name='a'/></optional><attribute name='k'/>"
        "</element></define>",
        0.6, SizeWindow(6, 0.7), None,
    ),
}


@pytest.mark.parametrize("declaration", [False, True])
@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_inline_grammars_stream_like_the_serializer(name, declaration):
    body, x, window, late = GRAMMARS[name]
    sampler = make_sampler(g(body), x)
    assert sampler.late if late is None else sampler.late == late
    for seed in range(25):
        data, stats, expected = both_routes(
            sampler,
            SamplerConfig(window=window, seed=seed, max_attempts=10**5),
            xml_declaration=declaration,
        )
        assert data == expected, seed
        assert stats.bytes_written == len(expected), seed
        assert data.startswith(b"<?xml ") == declaration


def test_late_element_without_content_closes_its_tag():
    sampler = make_sampler(
        g(
            "<start><element name='a'><optional><element name='b'><empty/>"
            "</element></optional><attribute name='k'/></element></start>"
        ),
        0.5,
    )
    assert sampler.late
    config = SamplerConfig(
        window=SizeWindow(2, 0.0), seed=0, registry={"string": lambda rng: "v"}
    )
    data, stats, expected = both_routes(sampler, config)
    assert data == expected == b'<a k="v"/>'
    assert stats.bytes_written == len(expected)


def test_empty_text_in_a_late_element_is_content():
    sampler = make_sampler(
        g(
            "<start><element name='a'><ref name='b'/></element></start>"
            '<define name="b"><element name="b"><text/><optional>'
            "<attribute name='k'/></optional></element></define>"
        ),
        0.5,
    )
    assert sampler.late == {"b"}
    config = SamplerConfig(
        window=SizeWindow(2, 0.0), seed=0, registry={"string": lambda rng: ""}
    )
    data, stats, expected = both_routes(sampler, config)
    assert data == expected == b"<a><b></b></a>"
    assert stats.bytes_written == len(expected)


LATE_DUPLICATE = (
    '<start><element name="a"><group><text/><attribute name="k"/>'
    '<attribute name="k"/></group></element></start>'
)


def test_late_duplicate_attribute_raises_like_the_serializer():
    message = "duplicate attribute 'k' on element 'a'"
    events = [
        StartElement("a", (("k", "v"), ("k", "w"))), TextContent("t"),
        EndElement("a"),
    ]
    with pytest.raises(SamplingError, match=message):
        serialize_stream(events, io.BytesIO())
    # the parser refuses the grammar, with the line of the second 'k'
    with pytest.raises(GrammarError, match=message) as info:
        g(LATE_DUPLICATE)
    assert info.value.line is not None


def test_late_duplicate_attribute_leaves_no_file(tmp_path, capsys):
    grammar = tmp_path / "dup.rng"
    grammar.write_text("<grammar %s>%s</grammar>" % (RNG, LATE_DUPLICATE))
    # the parser refuses it, with its line, so compile writes no system
    assert main(["compile", str(grammar)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "dup.rng:1:" in err and "duplicate attribute 'k' on element 'a'" in err
    assert not (tmp_path / "dup.gfs").exists()
    docs = tmp_path / "docs"
    code = main([
        "sample", str(grammar), str(tmp_path / "dup.oracle"),
        "-n", "3", "-e", "0", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "duplicate attribute 'k' on element 'a'" in capsys.readouterr().err
    assert not docs.exists()


def rewound_writer(sampler, window, seed, registry=None):
    """Accept an attempt, then return (size, write) where write(sink)
    replays it through the writer walk and may be called again."""
    rng_s, seed_v = sampler._streams(seed)
    _, size, _ = sampler._accept_attempt(
        rng_s, window.lower, window.upper, 10**4, Counter()
    )
    rng_v = random.Random(seed_v)
    state_s, state_v = rng_s.getstate(), rng_v.getstate()
    registry = sampler.registry_for(registry)

    def write(sink):
        rng_s.setstate(state_s)
        rng_v.setstate(state_v)
        return sampler._walk_write(rng_s, rng_v, registry, sink)

    return size, write


# A ternary tree of plain elements whose leaves are records with a late
# id attribute: one element in 5.5 is late, and none is the root.
RECORDS = (
    "<start><ref name='t'/></start>"
    '<define name="t"><element name="t"><choice><ref name="rec"/><group>'
    '<ref name="t"/><ref name="t"/><ref name="t"/></group></choice>'
    "</element></define>"
    '<define name="rec"><element name="rec"><ref name="f"/><ref name="f"/>'
    '<ref name="f"/><attribute name="id"><value>r</value></attribute>'
    "</element></define>"
    '<define name="f"><element name="f"><empty/></element></define>'
)
RECORDS_WINDOW = SizeWindow(1_300_000, 0.09)
RECORDS_SEED = 0  # accepts at attempt 1410 with 1,013,270 elements


def test_inner_late_elements_stream_a_million_elements():
    sampler = make_sampler(g(RECORDS), "auto")
    assert sampler.late == {"rec"}
    _, write = rewound_writer(sampler, RECORDS_WINDOW, RECORDS_SEED)

    sink = CountingSink()
    started = time.perf_counter()
    nbytes = write(sink)
    elapsed = time.perf_counter() - started
    assert nbytes == sink.n
    assert sink.elements >= 1_000_000
    assert (sink.first_write - started) / elapsed < 0.01
    assert traced_peak(write) < nbytes / 4


# A chain of late elements, each holding the next before its attribute.
# At x = sqrt(1 - 1/LEVELS) the depth is geometric with mean LEVELS.
CHAIN = (
    "<start><ref name='a'/></start>"
    '<define name="a"><element name="a"><optional><ref name="a"/></optional>'
    '<attribute name="k"/></element></define>'
)
CHAIN_LEVELS = 110_000
CHAIN_WINDOW = SizeWindow(230_000, 0.13)  # 2 per level: 100k to 130k levels
# a fixed value of the default strings' mean length; value draws would
# only slow the traced run
CHAIN_VALUE = {"string": lambda rng: "alpha bravo"}
COPY_BYTES_PER_SECOND = 2e10


def test_nested_late_chain_is_linear():
    sampler = make_sampler(g(CHAIN), math.sqrt(1.0 - 1.0 / CHAIN_LEVELS))
    assert CHAIN_WINDOW.lower >= 200_000
    size, write = rewound_writer(sampler, CHAIN_WINDOW, 0, CHAIN_VALUE)
    levels = size // 2

    sink = io.BytesIO()
    started = time.perf_counter()
    nbytes = write(sink)
    elapsed = time.perf_counter() - started
    data = sink.getvalue()
    assert len(data) == nbytes
    assert data.startswith(b'<a k="alpha bravo"><a k="alpha bravo">')
    assert data.count(b'<a k="alpha bravo">') == levels - 1
    assert data.count(b'<a k="alpha bravo"/></a></a>') == 1
    # a design that copies each late element's bytes into its parent's
    # buffer moves about nbytes * levels / 2 bytes, which takes longer
    # than this even at 20 GB/s
    assert elapsed < nbytes * levels / 2 / COPY_BYTES_PER_SECOND

    assert traced_peak(write) < 3 * nbytes
