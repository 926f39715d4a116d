"""Boltzmann sampling: tuning laws, window rejection, determinism, the
two-pass replay machinery, and the walk that writes bytes to a sink."""

import io
import math
import random
import statistics
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from boltzxml import (
    CeilingExceededError,
    ExhaustedError,
    GrammarError,
    MissingDatatypeError,
    EndElement,
    Sampler,
    SamplingError,
    SamplerConfig,
    SizeWindow,
    StartElement,
    TextContent,
    bundled_grammar_path,
    compile_grammar,
    count_coefficients,
    events_to_bytes,
    matches,
    parse_grammar,
    parse_grammar_file,
    serialize_stream,
    skeleton_key,
    solve,
)
from boltzxml import ast
from boltzxml.cli import EXIT_INPUT, main
from boltzxml.sampler import _DEAD, _parse_events

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'


def g(body):
    return parse_grammar('<grammar %s>%s</grammar>' % (RNG, body))


def make_sampler(grammar, x):
    system = compile_grammar(grammar)
    return Sampler(grammar, solve(system, x), system=system)


def doc_from_events(events):
    root = ET.fromstring(events_to_bytes(events))
    return root


# ---------------------------------------------------------------------------
# window arithmetic


@pytest.mark.parametrize(
    "n,eps,lo,hi",
    [
        (10, 0.1, 9, 11),
        (10, 0.0, 10, 10),
        (31, 0.2, 25, 37),  # 24.8 and 37.2 round inward
        (3, 0.5, 2, 4),
        (1000, 0.2, 800, 1200),
        (2, 1.0, 1, 4),
        (1, 0.0, 1, 1),
    ],
)
def test_window_bounds(n, eps, lo, hi):
    window = SizeWindow(n, eps)
    assert (window.lower, window.upper) == (lo, hi)


def test_window_validation():
    with pytest.raises(ValueError):
        SizeWindow(0, 0.1)
    with pytest.raises(ValueError):
        SizeWindow(10, -0.1)
    with pytest.raises(ValueError):
        SizeWindow(10, 1.5)


def test_config_validation():
    window = SizeWindow(10, 0.1)
    with pytest.raises(ValueError):
        SamplerConfig(window=window, max_attempts=0)


def test_negative_seed_is_rejected():
    # random.Random(-k) is random.Random(k): a negative seed would repeat
    # the document of its absolute value
    window = SizeWindow(10, 0.1)
    SamplerConfig(window=window, seed=0)
    with pytest.raises(ValueError, match="seed must not be negative"):
        SamplerConfig(window=window, seed=-2)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_bytes(grammars, oracles):
    sampler = Sampler(grammars["attrs"], oracles["attrs"])
    config = SamplerConfig(window=SizeWindow(20, 0.5), seed=42)
    runs = []
    for _ in range(2):
        sink = io.BytesIO()
        stats = sampler.sample_to_sink(config, sink)
        runs.append((sink.getvalue(), stats.size, stats.attempts))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == stats.bytes_written


def test_different_seeds_differ(grammars, oracles):
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    window = SizeWindow(40, 0.5)
    a = sampler.sample_in_window(SamplerConfig(window=window, seed=1))
    b = sampler.sample_in_window(SamplerConfig(window=window, seed=2))
    assert events_to_bytes(a.events) != events_to_bytes(b.events)


def test_window_sample_fields(grammars, oracles):
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    window = SizeWindow(25, 0.2)
    sample = sampler.sample_in_window(SamplerConfig(window=window, seed=5))
    assert window.lower <= sample.size <= window.upper
    histogram = sample.histogram
    assert sum(histogram.values()) == sample.attempts > 1
    # the accepted attempt is the only one inside the window; every other
    # aborted (-1) or finished below it
    inside = {s: c for s, c in histogram.items() if s >= window.lower}
    assert inside == {sample.size: 1}
    # the serialized event stream has exactly `size` element starts
    n_elems = sum(1 for e in sample.events if isinstance(e, StartElement))
    assert n_elems == sample.size  # ternary has no attributes


def test_phase_timings_are_reported(grammars, oracles):
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    config = SamplerConfig(window=SizeWindow(25, 0.2), seed=5)
    assert sampler.sample_in_window(config).count_seconds >= 0.0
    stats = sampler.sample_to_sink(config, io.BytesIO())
    assert stats.count_seconds >= 0.0 and stats.write_seconds >= 0.0


def test_min_size_is_the_first_nonzero_count(grammars, systems, oracles):
    cases = [(grammars[name], systems[name], oracles[name]) for name in grammars]
    for path in sorted((Path(__file__).parent / "data").glob("schema-*.rng")):
        schema = parse_grammar_file(path)
        system = compile_grammar(schema)
        cases.append((schema, system, solve(system, "auto")))
    for grammar, system, oracle in cases:
        sampler = Sampler(grammar, oracle, system=system)
        counts = count_coefficients(system, 40)
        assert sampler.min_size == next(n for n, c in enumerate(counts.series()) if c)
        sized = [name for name in grammar.defines if name in system.classes]
        assert sized
        for name in sized:
            first = next(n for n, c in enumerate(counts.series(name)) if c)
            assert sampler._mins[name] == first, (grammar.source, name)


def chain(n, child):
    """Definitions d0 ... d(n-1), each element holding child, a pattern
    around the reference %s to the next one; the last is empty."""
    body = "".join(
        '<define name="d%d"><element name="d%d">%s</element></define>'
        % (i, i, child % ('<ref name="d%d"/>' % (i + 1)))
        for i in range(n - 1)
    )
    body += '<define name="d%d"><element name="d%d"><empty/></element></define>' % (
        n - 1, n - 1,
    )
    return g("<start><ref name='d0'/></start>" + body)


def test_smallest_sizes_do_not_recurse_along_references():
    # 600 definitions, each optionally holding the next: a sizing that
    # recursed along the chain would pass the default recursion limit
    grammar = chain(600, "<optional>%s</optional>")
    system = compile_grammar(grammar)
    sampler = Sampler(grammar, solve(system, 0.5), system=system)
    assert sampler.min_size == 1
    assert set(sampler._mins.values()) == {1}


def test_a_long_chain_of_required_definitions_compiles_and_samples():
    # 3000 definitions, each holding the next: the compiler's class order
    # and the counting plan's build once recursed along the chain and
    # passed the default recursion limit near 1000
    n = 3000
    grammar = chain(n, "%s")
    system = compile_grammar(grammar)
    assert system.classes == ["d%d" % i for i in range(n)]
    sampler = Sampler(grammar, solve(system, 0.5), system=system)
    assert sampler.min_size == n and sampler._count_start == ()
    sink = io.BytesIO()
    config = SamplerConfig(window=SizeWindow(n, 0.0), seed=1)
    stats = sampler.sample_to_sink(config, sink)
    assert (stats.size, stats.attempts, stats.draws) == (n, 1, 0)
    names = ["d%d" % i for i in range(n)]
    assert sink.getvalue() == (
        "".join("<%s>" % name for name in names[:-1])
        + "<%s/>" % names[-1]
        + "".join("</%s>" % name for name in reversed(names[:-1]))
    ).encode()


def test_an_attribute_of_no_weight_is_a_dead_end():
    # b's only attribute can take no value, so the system drops b and its
    # smallest size is infinite; the sampler once failed to build on it,
    # compiling the attribute's value
    grammar = g(
        '<start><ref name="a"/></start><define name="a"><element name="a">'
        '<optional><ref name="b"/></optional></element></define>'
        '<define name="b"><element name="b"><attribute name="k"><notAllowed/>'
        "</attribute></element></define>"
    )
    system = compile_grammar(grammar)
    assert "b" not in system.classes
    sampler = Sampler(grammar, solve(system, 0.5), system=system)
    assert sampler._mins == {"a": 1, "b": math.inf}
    assert sampler._count_defs["b"] == ((_DEAD,),)
    for seed in range(5):
        sink = io.BytesIO()
        config = SamplerConfig(window=SizeWindow(1, 0.0), seed=seed)
        assert sampler.sample_to_sink(config, sink).size == 1
        assert sink.getvalue() == b"<a/>"


@pytest.mark.parametrize("method", ["sample_in_window", "sample_to_sink"])
def test_window_below_min_size_fails_fast(grammars, oracles, method):
    # a feed document has at least 6 nodes
    sampler = Sampler(grammars["feed"], oracles["feed"])
    assert sampler.min_size == 6
    sample = getattr(sampler, method)

    def run(window):
        config = SamplerConfig(window=window, seed=0)
        if method == "sample_to_sink":
            return sample(config, io.BytesIO())
        return sample(config)

    with pytest.raises(SamplingError, match="upper bound 5 .* size 6") as info:
        run(SizeWindow(5, 0.1))
    assert not isinstance(info.value, ExhaustedError)
    # the smallest documents themselves still fit
    assert run(SizeWindow(6, 0.0)).size == 6


def test_stream_matches_window_sample(grammars, oracles):
    # same seed: the streaming path must emit byte-identical output
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    config = SamplerConfig(window=SizeWindow(25, 0.2), seed=9)
    sample = sampler.sample_in_window(config)
    sink = io.BytesIO()
    stats = sampler.sample_to_sink(config, sink)
    assert sink.getvalue() == events_to_bytes(sample.events)
    assert (stats.size, stats.attempts) == (sample.size, sample.attempts)


# ---------------------------------------------------------------------------
# tuning laws


def test_ternary_sizes_are_one_mod_three(grammars, oracles):
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    rng = random.Random(17)
    for _ in range(300):
        size = sampler.free_size(rng, ceiling=500)
        if size != -1:
            assert size % 3 == 1


def test_geometric_repetition_law():
    grammar = g(
        "<start><ref name='list'/></start>"
        '<define name="list"><element name="list">'
        '<oneOrMore><ref name="x"/></oneOrMore></element></define>'
        '<define name="x"><element name="x"><empty/></element></define>'
    )
    sampler = make_sampler(grammar, 0.5)
    # at x = 0.5 the repetition count is geometric: P(k) = 2^-k
    rng = random.Random(1234)
    counts = {}
    draws = 4000
    for _ in range(draws):
        k = sampler.free_size(rng, ceiling=10**6) - 1
        counts[k] = counts.get(k, 0) + 1
    for k, p in ((1, 0.5), (2, 0.25), (3, 0.125)):
        observed = counts.get(k, 0) / draws
        assert abs(observed - p) < 4 * (p * (1 - p) / draws) ** 0.5, k


def test_binary_leaf_probability(systems, grammars):
    # P(root is a leaf) = x / b(x); at x = 1/4, b = (1-sqrt(3/4))/(1/2)
    oracle = solve(systems["binary"], 0.25)
    sampler = Sampler(grammars["binary"], oracle, system=systems["binary"])
    expect = 0.25 / oracle.values["b"]
    rng = random.Random(77)
    draws = 4000
    leaves = sum(1 for _ in range(draws) if sampler.free_size(rng) == 1)
    sigma = (expect * (1 - expect) / draws) ** 0.5
    assert abs(leaves / draws - expect) < 4 * sigma


def test_binary_mean_size_matches_series(systems, grammars):
    # E[size] = sum n t_n x^n / sum t_n x^n, computed from the coefficients
    x = 0.25
    series = count_coefficients(systems["binary"], 81).series()
    masses = [t * x**n for n, t in enumerate(series)]
    z = sum(masses)
    mean = sum(n * m for n, m in enumerate(masses)) / z
    var = sum(n * n * m for n, m in enumerate(masses)) / z - mean * mean
    oracle = solve(systems["binary"], x)
    sampler = Sampler(grammars["binary"], oracle, system=systems["binary"])
    rng = random.Random(4)
    draws = 4000
    total = sum(sampler.free_size(rng) for _ in range(draws))
    assert abs(total / draws - mean) < 4 * (var / draws) ** 0.5


def test_free_sample_returns_events_and_size(grammars, oracles):
    sampler = Sampler(grammars["attrs"], oracles["attrs"])
    events, size = sampler.free_sample(rng=11, ceiling=10**5)
    n = sum(
        1 + len(e.attributes) for e in events if isinstance(e, StartElement)
    )
    assert n == size >= 2


def test_free_sample_ceiling(grammars, oracles):
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    raised = False
    for seed in range(300):
        try:
            sampler.free_sample(rng=seed, ceiling=10)
        except CeilingExceededError as exc:
            raised = True
            assert exc.ceiling == 10
            break
    assert raised


# ---------------------------------------------------------------------------
# rejection window


def test_exhaustion_histogram(grammars, oracles):
    # ternary documents never have size 2, so the window [2,2] must exhaust
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    config = SamplerConfig(
        window=SizeWindow(2, 0.0), seed=0, max_attempts=50
    )
    with pytest.raises(ExhaustedError) as info:
        sampler.sample_in_window(config)
    exc = info.value
    assert exc.attempts == 50
    assert sum(exc.histogram.values()) == 50
    assert set(exc.histogram) <= {1, -1}


def test_windowed_documents_validate(grammars, oracles):
    for name in ("ternary", "binary", "attrs", "oneormore", "feed"):
        sampler = Sampler(grammars[name], oracles[name])
        window = SizeWindow(20, 0.5)
        for seed in range(20):
            sample = sampler.sample_in_window(
                SamplerConfig(window=window, seed=seed, max_attempts=5000)
            )
            assert window.lower <= sample.size <= window.upper, name
            root = doc_from_events(sample.events)
            assert matches(grammars[name], root), (name, seed)


# ---------------------------------------------------------------------------
# value streams and registries


def test_value_stream_does_not_disturb_structure(grammars, oracles):
    # overriding value samplers must leave the skeleton untouched
    sampler = Sampler(grammars["attrs"], oracles["attrs"])
    window = SizeWindow(15, 0.5)
    a = sampler.sample_in_window(SamplerConfig(window=window, seed=8))
    b = sampler.sample_in_window(
        SamplerConfig(
            window=window,
            seed=8,
            registry={"integer": lambda rng: str(rng.randrange(10**9))},
        )
    )
    assert skeleton_key(a.events) == skeleton_key(b.events)
    assert (a.size, a.attempts) == (b.size, b.attempts)


@pytest.mark.parametrize("path,x", [
    (bundled_grammar_path("feed"), 0.6174135),
    (Path(__file__).parent / "data" / "schema-4-16-8.rng", "auto"),
], ids=["feed", "schema-4-16-8"])
def test_value_samplers_do_not_change_free_shapes(path, x):
    # free_sample seeds its structure and value streams apart, like a
    # window sample, so constant values leave every shape as it was
    sampler = make_sampler(parse_grammar_file(path), x)
    constant = {t: lambda rng: "1" for t in sampler.used_types}
    for seed in range(50):
        events, size = sampler.free_sample(seed)
        same, same_size = sampler.free_sample(seed, registry=constant)
        assert skeleton_key(events) == skeleton_key(same), seed
        assert size == same_size


def test_registry_forces_values(grammars, oracles):
    sampler = Sampler(grammars["attrs"], oracles["attrs"])
    sample = sampler.sample_in_window(
        SamplerConfig(
            window=SizeWindow(6, 0.5), seed=2, registry={"integer": lambda rng: "99"}
        )
    )
    root = doc_from_events(sample.events)
    assert root.get("id") == "99"
    for elem in root.iter():
        assert elem.get("id") in (None, "99")


def test_missing_datatype_is_reported():
    grammar = g(
        '<start><element name="a"><attribute name="k">'
        '<data type="unobtanium"/></attribute></element></start>'
    )
    sampler = make_sampler(grammar, 0.3)
    config = SamplerConfig(window=SizeWindow(2, 0.0), seed=0)
    with pytest.raises(MissingDatatypeError, match="unobtanium"):
        sampler.sample_in_window(config)
    fixed = sampler.sample_in_window(
        SamplerConfig(
            window=SizeWindow(2, 0.0),
            seed=0,
            registry={"unobtanium": lambda rng: "ok"},
        )
    )
    assert doc_from_events(fixed.events).get("k") == "ok"


# ---------------------------------------------------------------------------
# late attributes: the element's subtree waits for its start tag


@pytest.fixture(scope="module")
def late_attr_sampler():
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><group>'
        '<ref name="b"/><attribute name="k"/>'
        "</group></element></define>"
        '<define name="b"><element name="b"><empty/></element></define>'
    )
    return grammar, make_sampler(grammar, 0.4)


def test_late_attribute_forces_buffering(late_attr_sampler):
    grammar, sampler = late_attr_sampler
    assert sampler.late == {"a"}
    sample = sampler.sample_in_window(
        SamplerConfig(window=SizeWindow(3, 0.0), seed=1)
    )
    root = doc_from_events(sample.events)
    assert root.get("k") is not None
    assert [c.tag for c in root] == ["b"]
    assert matches(grammar, root)


def test_buffered_stream_matches_events(late_attr_sampler):
    _, sampler = late_attr_sampler
    config = SamplerConfig(window=SizeWindow(3, 0.0), seed=6)
    sample = sampler.sample_in_window(config)
    sink = io.BytesIO()
    sampler.sample_to_sink(config, sink)
    assert sink.getvalue() == events_to_bytes(sample.events)


def test_early_attributes_stream(grammars, oracles):
    assert not Sampler(grammars["attrs"], oracles["attrs"]).late
    assert not Sampler(grammars["feed"], oracles["feed"]).late


# ---------------------------------------------------------------------------
# the writer walk: sample_to_sink on streaming grammars


def both_routes(sampler, config, sink=None, **kwargs):
    """(sample_to_sink bytes, stats, serialize_stream bytes of the events)."""
    sink = sink if sink is not None else io.BytesIO()
    stats = sampler.sample_to_sink(config, sink, **kwargs)
    events = sampler.sample_in_window(config).events
    return sink, stats, events_to_bytes(events, **kwargs)


def test_empty_text_value_closes_with_end_tag():
    grammar = g(
        "<start><element name='a'><element name='b'><text/></element>"
        "<element name='c'><value></value></element></element></start>"
    )
    system = compile_grammar(grammar)
    sampler = Sampler(grammar, solve(system, 0.5), system=system)
    assert not sampler.late
    config = SamplerConfig(
        window=SizeWindow(3, 0.0), seed=0, registry={"string": lambda rng: ""}
    )
    sink, stats, expected = both_routes(sampler, config)
    assert sink.getvalue() == expected == b"<a><b></b><c></c></a>"
    assert stats.bytes_written == len(expected)
    # the events parsed from those bytes keep one empty text per element,
    # where <b/> has none
    a, b, c = StartElement("a"), StartElement("b"), StartElement("c")
    empty = TextContent("")
    assert sampler.sample_in_window(config).events == [
        a, b, empty, EndElement("b"), c, empty, EndElement("c"), EndElement("a")
    ]
    assert _parse_events(b"<a><b/><c></c></a>") == [
        a, b, EndElement("b"), c, empty, EndElement("c"), EndElement("a")
    ]
    # adjacent texts arrive as one, and an empty one beside content is gone
    assert _parse_events(b"<a>x&amp;y\r\n&#13;<b/></a>") == [
        a, TextContent("x&y\n\r"), b, EndElement("b"), EndElement("a")
    ]


def test_namespaced_root_is_written_like_the_serializer():
    grammar = g(
        '<start><element name="a" ns="urn:x&amp;&quot;y">'
        "<optional><ref name='a'/></optional></element></start>"
        '<define name="a"><element name="a" ns="urn:x&amp;&quot;y">'
        "<optional><ref name='a'/></optional></element></define>"
    )
    sampler = make_sampler(grammar, 0.3)
    for seed in range(5):
        config = SamplerConfig(window=SizeWindow(2, 1.0), seed=seed)
        sink, _, expected = both_routes(sampler, config)
        assert sink.getvalue() == expected
        assert expected.startswith(b'<a xmlns="urn:x&amp;&quot;y"')
        # the parsed events carry the namespace as ns, not as an attribute
        starts = [
            e for e in sampler.sample_in_window(config).events
            if isinstance(e, StartElement)
        ]
        assert starts and all(e == StartElement("a", (), 'urn:x&"y') for e in starts)


@pytest.mark.parametrize("late", [False, True])
def test_whitespace_in_values_survives_a_parser(late):
    # a parser turns a raw tab, LF or CR in an attribute value into a
    # space and a raw CR in text into LF, so both must be escaped
    attrs = (
        '<attribute name="v"><value type="string">p&#10;q</value></attribute>'
        '<attribute name="w"><data type="token"/></attribute>'
    )
    content = (
        '<value type="string">r&#13;s</value>'
        '<element name="b"><data type="token"/></element>'
    )
    body = content + attrs if late else attrs + content
    grammar = g("<start><element name='a'>%s</element></start>" % body)
    sampler = make_sampler(grammar, 0.5)
    assert bool(sampler.late) == late
    value = "t\tu\r\nv\r"
    config = SamplerConfig(
        window=SizeWindow(4, 0.0), seed=0, registry={"token": lambda rng: value}
    )
    sink, _, expected = both_routes(sampler, config)
    assert sink.getvalue() == expected
    root = ET.fromstring(expected)
    assert (root.get("v"), root.get("w")) == ("p\nq", value)
    assert (root.text, root[0].text) == ("r\rs", value)


@pytest.mark.parametrize("name", ["attrs", "feed", "ternary"])
def test_xml_declaration_is_written_first(grammars, oracles, name):
    sampler = Sampler(grammars[name], oracles[name])
    config = SamplerConfig(window=SizeWindow(30, 0.5), seed=4, max_attempts=10**4)
    sink, stats, expected = both_routes(sampler, config, xml_declaration=True)
    assert sink.getvalue() == expected
    assert expected.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n<')
    assert stats.bytes_written == len(expected)


class SilentSink:
    """Binary sink whose write returns None, like some file wrappers."""

    def __init__(self):
        self.parts = []

    def write(self, data):
        self.parts.append(bytes(data))


def test_byte_count_does_not_rely_on_write_result(grammars, oracles):
    sampler = Sampler(grammars["feed"], oracles["feed"])
    config = SamplerConfig(window=SizeWindow(40, 0.5), seed=2)
    sink, stats, expected = both_routes(sampler, config, sink=SilentSink())
    assert b"".join(sink.parts) == expected
    assert stats.bytes_written == len(expected)


class RebindingSink:
    """Rebinds write to a buffer's method after the first call, noting how
    many leaf values the walk had drawn by then."""

    def __init__(self, draws):
        self.buffer = io.BytesIO()
        self.draws = draws
        self.first_calls = 0
        self.draws_at_first = None
        self.write = self._first_write

    def _first_write(self, data):
        self.first_calls += 1
        self.draws_at_first = len(self.draws)
        self.write = self.buffer.write
        return self.buffer.write(data)


def test_first_write_comes_before_the_walk_ends(grammars, oracles):
    draws = []

    def title(rng):
        draws.append(1)
        return "t%d" % rng.randrange(100)

    sampler = Sampler(grammars["feed"], oracles["feed"])
    config = SamplerConfig(
        window=SizeWindow(40, 0.5), seed=7, registry={"string": title}
    )
    sink = RebindingSink(draws)
    sampler.sample_to_sink(config, sink)
    # every later write went to the rebound method, not the first one
    assert sink.first_calls == 1
    assert sink.draws_at_first == 0 < len(draws)
    draws.clear()
    assert sink.buffer.getvalue() == events_to_bytes(
        sampler.sample_in_window(config).events
    )


DUPLICATE = (
    '<start><element name="a"><group><attribute name="k"/>'
    '<attribute name="k"/></group></element></start>'
)


class DiscardSink:
    """Binary sink that keeps no bytes."""

    write = len


def test_rejections_keep_no_copy_of_the_generator(grammars, oracles):
    # a ternary document at 1000 rejects hundreds of attempts; finding the
    # accepted one again re-seeds and skips, where a snapshot of the
    # generator's state alone would take 24 KB
    sampler = Sampler(grammars["ternary"], oracles["ternary"])
    window = SizeWindow(1000, 0.1)
    sink = DiscardSink()
    peaks = []
    tracemalloc.start()
    try:
        for seed in range(9):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sampler.sample_to_sink(SamplerConfig(window=window, seed=seed), sink)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert statistics.median(peaks) < 24 * 1024, peaks


def test_memory_does_not_follow_the_length_of_a_repetition(grammars):
    # a feed document is mostly one zeroOrMore of items; both walks push
    # a bounded chunk of items at a time, so ten times the items take no
    # more memory.  Pushing every item at once took 12-18 KB at 1e3 and
    # 39-126 KB at 1e4.  x puts the mean size near 1e5, and each window
    # is wide enough to need few attempts.
    sampler = make_sampler(grammars["feed"], 0.6180278)
    sink = DiscardSink()
    medians = []
    tracemalloc.start()
    try:
        for n in (1000, 10000):
            peaks = []
            for seed in range(3):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                config = SamplerConfig(window=SizeWindow(n, 0.5), seed=seed)
                sampler.sample_to_sink(config, sink)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            medians.append(statistics.median(peaks))
    finally:
        tracemalloc.stop()
    assert abs(medians[1] - medians[0]) < 2 * 1024, medians


def test_duplicate_attribute_raises_like_the_serializer():
    message = "duplicate attribute 'k' on element 'a'"
    events = [StartElement("a", (("k", "v"), ("k", "w"))), EndElement("a")]
    with pytest.raises(SamplingError, match=message):
        serialize_stream(events, io.BytesIO())
    # the parser refuses the grammar, with the line of the second 'k'
    with pytest.raises(GrammarError, match=message) as info:
        g(DUPLICATE)
    assert info.value.line is not None


def _element_a(content):
    return g(
        '<start><ref name="a"/></start><define name="a">'
        '<element name="a">%s</element></define>' % content
    )


@pytest.mark.parametrize("content", [
    # one name in two branches of one choice
    '<choice><attribute name="k"/><attribute name="k"><value>v</value>'
    '</attribute></choice>',
    # the same, in a late element
    '<text/><choice><attribute name="k"/><attribute name="k"/></choice>',
    # one name on an element and on its child
    '<attribute name="k"/><element name="b"><attribute name="k"/></element>'
    '<zeroOrMore><ref name="a"/></zeroOrMore>',
])
def test_attribute_names_that_cannot_meet_sample(content):
    sampler = make_sampler(_element_a(content), 0.1)
    for seed in range(20):
        events = sampler.sample_in_window(
            SamplerConfig(window=SizeWindow(6, 1.0), seed=seed)
        ).events
        for event in events:
            if type(event) is StartElement:
                assert [k for k, _ in event.attributes] == ["k"]


_CAN_MEET = {
    # the writer writes a namespaced attribute by its local name
    "namespace": '<attribute name="k"/><attribute name="k" ns="urn:x"/>',
    # either side of a group can hold the name anywhere beneath it
    "nested": (
        '<optional><attribute name="k"/></optional><zeroOrMore><ref name="a"/>'
        '</zeroOrMore><choice><empty/><group><text/><attribute name="k"/>'
        '</group></choice>'
    ),
}


@pytest.mark.parametrize("case", ["namespace", "nested", "canonical", "ast"])
def test_attribute_names_that_can_meet_are_refused(case):
    # built in the body: a grammar the parser refuses at collection time
    # would stop the whole module from collecting
    message = "duplicate attribute 'k' on element 'a'"
    if case in _CAN_MEET:
        with pytest.raises(GrammarError, match=message) as info:
            _element_a(_CAN_MEET[case])
        assert info.value.line is not None
        return
    # built in code, so relaxng never sees them: Sampler refuses them
    if case == "canonical":
        grammar = ast.from_canonical(
            'start\n  ref "a"\ndefine "a"\n  element "a"\n    group\n'
            '      attribute "k"\n        text\n      attribute "k"\n'
            '        text\n'
        )
    else:
        message = "attribute 'k' inside oneOrMore would repeat"
        grammar = ast.Grammar(
            ast.Ref("a"),
            {"a": ast.Element("a", ast.OneOrMore(ast.Attribute("k", ast.Text())))},
        )
    system = compile_grammar(grammar)
    oracle = solve(system, 0.1)
    with pytest.raises(GrammarError, match=message):
        Sampler(grammar, oracle, system=system)


def test_events_of_a_document_that_does_not_parse_raise():
    # a character XML forbids, from a custom sampler, is written as is
    sampler = make_sampler(g("<start><element name='a'><text/></element></start>"), 0.5)
    config = SamplerConfig(
        window=SizeWindow(1, 0.0), seed=0, registry={"string": lambda rng: "a\x01b"}
    )
    with pytest.raises(SamplingError, match="sampled document does not parse"):
        sampler.sample_in_window(config)
    with pytest.raises(SamplingError, match="sampled document does not parse"):
        sampler.free_sample(0, registry=config.registry)


def test_duplicate_attribute_leaves_no_file(tmp_path, capsys):
    grammar = tmp_path / "dup.rng"
    grammar.write_text("<grammar %s>%s</grammar>" % (RNG, DUPLICATE))
    # the parser refuses it, with its line, so compile writes no system
    assert main(["compile", str(grammar)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "dup.rng:1:" in err and "duplicate attribute 'k'" in err
    assert not (tmp_path / "dup.gfs").exists()
    docs = tmp_path / "docs"
    code = main([
        "sample", str(grammar), str(tmp_path / "dup.oracle"),
        "-n", "3", "-e", "0", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "duplicate attribute 'k'" in capsys.readouterr().err
    assert not docs.exists()


def test_rare_duplicate_attribute_is_refused_before_any_document(tmp_path, capsys):
    # two optional k's meet in few documents: drawn one by one, 172 of
    # these 200 would be written before the first duplicate
    grammar = tmp_path / "rare.rng"
    grammar.write_text(
        '<grammar %s><start><ref name="a"/></start><define name="a">'
        '<element name="a"><optional><attribute name="k"/></optional>'
        '<optional><attribute name="k"/></optional><zeroOrMore><ref name="a"/>'
        '</zeroOrMore></element></define></grammar>' % RNG
    )
    assert main(["compile", str(grammar)]) == EXIT_INPUT
    assert "duplicate attribute 'k' on element 'a'" in capsys.readouterr().err
    assert not (tmp_path / "rare.gfs").exists()
    docs, stats = tmp_path / "docs", tmp_path / "s.ndjson"
    code = main([
        "sample", str(grammar), str(tmp_path / "rare.oracle"), "-n", "3",
        "-e", "1", "--count", "200", "--out", str(docs), "--stats", str(stats),
    ])
    assert code == EXIT_INPUT
    assert "duplicate attribute 'k' on element 'a'" in capsys.readouterr().err
    assert not docs.exists()
    assert not stats.exists()
