"""Golden samples: sampled bytes for fixed seeds must not change.

Determinism is part of the sampler's contract: a grammar, an oracle and a
seed fix the document.  data/golden_samples.json records, per grammar and
seed, the sha256 of
  - sample_to_sink bytes, without and with the XML declaration,
  - events_to_bytes(sample_in_window(...).events),
  - free_sample(rng=seed) bytes, with the size it reports,
plus the window sample's size and attempt count.  The grammars are the
five bundled ones and data/schema-4-16-8.rng (29 classes, the only one
here with late elements, whose attributes can follow their content, so
its bytes wait in the writer walk's region buffer).  Every oracle is solved at x=auto
except feed's: feed has a pole, auto x sits on it and every window
attempt overshoots, so feed uses x = 0.6174135, where E[size] = 1000.

To re-record after an intended change of the sampled bytes, run
    PYTHONPATH=src python tests/test_golden_samples.py --write
which prints a "grammar seed field" line for every value that differs
from the file on disk before it writes, and announce the change in
CHANGES.md."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    bundled_grammar_path,
    compile_grammar,
    events_to_bytes,
    list_bundled_grammars,
    parse_grammar_file,
    solve,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_samples.json"
SCHEMA = DATA / "schema-4-16-8.rng"

FEED_X = 0.6174135
WINDOW = SizeWindow(300, 0.2)
SEEDS = (1, 2, 3)


def _grammar_paths():
    paths = {name: bundled_grammar_path(name) for name in list_bundled_grammars()}
    paths["schema"] = SCHEMA
    return paths


def _sampler(path, name):
    grammar = parse_grammar_file(path)
    system = compile_grammar(grammar)
    oracle = solve(system, FEED_X if name == "feed" else "auto")
    return Sampler(grammar, oracle, system=system)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _record(sampler, seed):
    config = SamplerConfig(window=WINDOW, seed=seed)
    plain, decl = io.BytesIO(), io.BytesIO()
    stats = sampler.sample_to_sink(config, plain)
    sampler.sample_to_sink(config, decl, xml_declaration=True)
    window = sampler.sample_in_window(config)
    events, size = sampler.free_sample(rng=seed)
    return {
        "size": stats.size,
        "attempts": stats.attempts,
        "bytes_written": stats.bytes_written,
        "sink": _sha(plain.getvalue()),
        "sink_declaration": _sha(decl.getvalue()),
        "window_events": _sha(events_to_bytes(window.events)),
        "window_size": window.size,
        "free": _sha(events_to_bytes(events)),
        "free_size": size,
    }


def _records(name, path):
    sampler = _sampler(path, name)
    return {str(seed): _record(sampler, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_grammar_paths()))
def test_samples_are_byte_identical(name, golden):
    assert _records(name, _grammar_paths()[name]) == golden[name]


def test_schema_exercises_late_elements():
    assert _sampler(SCHEMA, "schema").late
    for name in list_bundled_grammars():
        assert not _sampler(bundled_grammar_path(name), name).late, name


def _changes(old, new):
    """(grammar, seed, field) of every value that differs between two
    records, one present in only one of them included."""
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        for seed in sorted(was.keys() | now.keys(), key=int):
            a, b = was.get(seed, {}), now.get(seed, {})
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    yield name, seed, key


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    records = {name: _records(name, path) for name, path in sorted(_grammar_paths().items())}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for change in _changes(old, records):
        print(*change)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
