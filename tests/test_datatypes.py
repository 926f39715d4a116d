"""Built-in datatype samplers and value-table plugins."""

import json
import random
import re

import pytest

from boltzxml import (
    canonical_value,
    default_datatype_samplers,
    load_value_table,
    merge_registries,
)

LEXICAL = {
    "integer": r"-?\d+",
    "int": r"-?\d+",
    "long": r"-?\d+",
    "short": r"-?\d+",
    "nonNegativeInteger": r"\d+",
    "positiveInteger": r"[1-9]\d*|0*[1-9]\d*",
    "decimal": r"-?\d+\.\d\d",
    "double": r"-?\d\.\d{6}e[+-]\d+",
    "float": r"-?\d\.\d{6}e[+-]\d+",
    "boolean": r"true|false",
    "date": r"\d{4}-\d{2}-\d{2}",
    "time": r"\d{2}:\d{2}:\d{2}",
    "dateTime": r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
    "gYear": r"\d{4}",
    "anyURI": r"https://example\.invalid/\S+",
    "language": r"[a-z]{2}(-[A-Z]{2})?",
}


def test_registry_covers_common_types():
    registry = default_datatype_samplers()
    for name in ("string", "token", "integer", "boolean", "date", "anyURI"):
        assert name in registry


def test_lexical_shapes():
    registry = default_datatype_samplers()
    rng = random.Random(7)
    for name, sampler in registry.items():
        pattern = LEXICAL.get(name)
        for _ in range(200):
            value = sampler(rng)
            assert isinstance(value, str) and value, name
            if pattern:
                assert re.fullmatch(pattern, value), (name, value)


def test_determinism():
    registry = default_datatype_samplers()
    for name, sampler in registry.items():
        a = [sampler(random.Random(3)) for _ in range(5)]
        b = [sampler(random.Random(3)) for _ in range(5)]
        assert a == b, name


def test_numeric_values_parse():
    registry = default_datatype_samplers()
    rng = random.Random(11)
    for _ in range(100):
        int(registry["integer"](rng))
        float(registry["decimal"](rng))
        float(registry["double"](rng))


def test_date_values_are_real_dates():
    import datetime

    registry = default_datatype_samplers()
    rng = random.Random(13)
    for _ in range(200):
        datetime.date.fromisoformat(registry["date"](rng))


def test_canonical_values_are_fixed_and_valid():
    assert canonical_value("integer") == "0"
    assert canonical_value("date") == "2000-01-01"
    # lexical spaces of the types, wider than the sampler output shapes
    spaces = {
        "decimal": r"-?\d+(\.\d+)?",
        "double": r"-?\d+(\.\d+)?([eE][+-]?\d+)?",
        "float": r"-?\d+(\.\d+)?([eE][+-]?\d+)?",
        "boolean": r"true|false|1|0",
        "time": r"\d{2}:\d{2}:\d{2}",
        "gYear": r"\d{4}",
    }
    for name, pattern in spaces.items():
        assert re.fullmatch(pattern, canonical_value(name)), name
    # unknown types fall back to the type name itself
    assert canonical_value("customThing") == "customThing"


def test_value_table_loading(tmp_path):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"color": ["red", "green"], "integer": ["42"]}))
    table = load_value_table(path)
    assert set(table) == {"color", "integer"}
    rng = random.Random(1)
    seen = {table["color"](rng) for _ in range(50)}
    assert seen == {"red", "green"}
    assert table["integer"](rng) == "42"


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2]",
        '{"t": "notalist"}',
        '{"t": []}',
        '{"t": [1]}',
        '{"t": ["ok"], 3: []}',
        "not json",
        '{"string": ["a\\u0001b"]}',
    ],
)
def test_value_table_rejects_bad_payloads(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError):
        load_value_table(path)


def test_merge_registries_overrides_and_extends():
    merged = merge_registries({"integer": lambda rng: "7", "custom": lambda rng: "c"})
    rng = random.Random(0)
    assert merged["integer"](rng) == "7"
    assert merged["custom"](rng) == "c"
    assert "date" in merged
    # defaults object is untouched
    assert default_datatype_samplers()["integer"](random.Random(5)) != "7"


# each integer type's sampler range, inside its XSD value space (XML Schema
# Part 2, section 3.3); xsd:short is -32768..32767
INTEGER_RANGES = {
    "integer": (-10**6, 10**6),
    "int": (-10**6, 10**6),
    "long": (-10**6, 10**6),
    "short": (-32768, 32767),
    "nonNegativeInteger": (0, 10**6),
    "positiveInteger": (1, 10**6),
}

# sha256 prefixes of the values _draws gives, recorded before the types
# moved into one table; every type but short keeps its values
VALUE_DIGESTS = {
    "string": "7a7cf92ab0245c02",
    "normalizedString": "138f06c713809374",
    "token": "138f06c713809374",
    "integer": "e6df2e44a0287ef2",
    "int": "e6df2e44a0287ef2",
    "long": "e6df2e44a0287ef2",
    "nonNegativeInteger": "22b59c69609cc7f6",
    "positiveInteger": "dff57b97c56697eb",
    "decimal": "a1fbf238e1316d28",
    "double": "015ac9a88b043219",
    "float": "015ac9a88b043219",
    "boolean": "f2a659d2eeb94dd6",
    "date": "3969e8dfaa1706df",
    "time": "800570c3f94c50d1",
    "dateTime": "9ac76f586929a889",
    "gYear": "a537ee6f4d0fc5a6",
    "anyURI": "5fe1da72ffe8375f",
    "language": "5339c2b1c5f158ae",
}


def _draws(sampler):
    """Two values from each of the generators seeded 0..999."""
    values = []
    for seed in range(1000):
        rng = random.Random(seed)
        values += [sampler(rng), sampler(rng)]
    return values


def test_integer_values_lie_in_their_range():
    registry = default_datatype_samplers()
    for name, (low, high) in INTEGER_RANGES.items():
        values = [int(v) for v in _draws(registry[name])]
        assert low <= min(values) and max(values) <= high, name


def test_values_are_the_recorded_ones():
    import hashlib

    registry = default_datatype_samplers()
    assert set(registry) == set(VALUE_DIGESTS) | {"short"}
    for name, digest in VALUE_DIGESTS.items():
        text = "\n".join(_draws(registry[name])).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, name
