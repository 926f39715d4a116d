"""Boltzmann sampling: tuning laws, window rejection, determinism, the
two-pass replay machinery, and the walk that writes bytes to a sink."""

import io
import random
import xml.etree.ElementTree as ET

import pytest

from boltzxml import (
    CeilingExceededError,
    ExhaustedError,
    MissingDatatypeError,
    Sampler,
    SamplingError,
    SamplerConfig,
    SizeWindow,
    StartElement,
    compile_grammar,
    count_coefficients,
    events_to_bytes,
    matches,
    parse_grammar,
    serialize_stream,
    skeleton_key,
    solve,
)
from boltzxml.cli import EXIT_INPUT, main

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
    assert sample.attempts == len(sample.sizes)
    assert sample.sizes[-1] == sample.size
    for s in sample.sizes[:-1]:
        assert s == -1 or s < window.lower
    # the serialized event stream has exactly `size` element starts
    n_elems = sum(1 for e in sample.events if isinstance(e, StartElement))
    assert n_elems == sample.size  # ternary has no attributes


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
# buffered mode for late attributes


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
    assert sampler.buffered
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
    assert not Sampler(grammars["attrs"], oracles["attrs"]).buffered
    assert not Sampler(grammars["feed"], oracles["feed"]).buffered


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
    assert not sampler.buffered
    sink, stats, expected = both_routes(
        sampler,
        SamplerConfig(
            window=SizeWindow(3, 0.0), seed=0, registry={"string": lambda rng: ""}
        ),
    )
    assert sink.getvalue() == expected == b"<a><b></b><c></c></a>"
    assert stats.bytes_written == len(expected)


def test_namespaced_root_is_written_like_the_serializer():
    grammar = g(
        '<start><element name="a" ns="urn:x&amp;&quot;y">'
        "<optional><ref name='a'/></optional></element></start>"
        '<define name="a"><element name="a" ns="urn:x&amp;&quot;y">'
        "<optional><ref name='a'/></optional></element></define>"
    )
    sampler = make_sampler(grammar, 0.3)
    for seed in range(5):
        sink, _, expected = both_routes(
            sampler, SamplerConfig(window=SizeWindow(2, 1.0), seed=seed)
        )
        assert sink.getvalue() == expected
        assert expected.startswith(b'<a xmlns="urn:x&amp;&quot;y"')


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
    assert sampler.buffered == late
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


def test_duplicate_attribute_raises_like_the_serializer():
    sampler = make_sampler(g(DUPLICATE), 0.3)
    assert not sampler.buffered
    config = SamplerConfig(window=SizeWindow(3, 0.0), seed=0)
    events = sampler.sample_in_window(config).events
    with pytest.raises(SamplingError) as by_events:
        serialize_stream(events, io.BytesIO())
    with pytest.raises(SamplingError) as by_walk:
        sampler.sample_to_sink(config, io.BytesIO())
    assert str(by_walk.value) == str(by_events.value)
    assert str(by_walk.value) == "duplicate attribute 'k' on element 'a'"


def test_duplicate_attribute_leaves_no_file(tmp_path, capsys):
    grammar = tmp_path / "dup.rng"
    grammar.write_text("<grammar %s>%s</grammar>" % (RNG, DUPLICATE))
    assert main(["compile", str(grammar)]) == 0
    assert main(["solve", str(tmp_path / "dup.gfs"), "--x", "0.3"]) == 0
    docs = tmp_path / "docs"
    code = main([
        "sample", str(grammar), str(tmp_path / "dup.oracle"),
        "-n", "3", "-e", "0", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "duplicate attribute 'k'" in capsys.readouterr().err
    assert list(docs.iterdir()) == []
