"""Leaf value generation for text, data and value patterns.

A datatype sampler is a callable taking a random.Random and returning a
lexically valid string for its type.  The defaults cover the common XSD
types; any of them can be overridden, and new names added, by passing a
registry mapping to the sampler or the --datatype-plugin CLI flag, whose
file is JSON of the form {"typename": ["value", ...]} (values drawn
uniformly).  Every sampler is deterministic given the generator state.
"""

from __future__ import annotations

import functools
import json
import re

__all__ = [
    "default_datatype_samplers",
    "canonical_value",
    "load_value_table",
    "merge_registries",
]

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


def _string(rng):
    k = rng.randrange(1, 4)
    return " ".join(rng.choice(_WORDS) for _ in range(k))


def _token(rng):
    return rng.choice(_WORDS)


def _integer(rng):
    return str(rng.randrange(-10**6, 10**6 + 1))


def _non_negative_integer(rng):
    return str(rng.randrange(0, 10**6 + 1))


def _positive_integer(rng):
    return str(rng.randrange(1, 10**6 + 1))


def _decimal(rng):
    return "%d.%02d" % (rng.randrange(-10**4, 10**4 + 1), rng.randrange(100))


def _double(rng):
    return "%.6e" % (rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-3, 7))


def _boolean(rng):
    return rng.choice(("true", "false"))


def _date(rng):
    return "%04d-%02d-%02d" % (
        rng.randrange(1970, 2100),
        rng.randrange(1, 13),
        rng.randrange(1, 29),
    )


def _time(rng):
    return "%02d:%02d:%02d" % (
        rng.randrange(24), rng.randrange(60), rng.randrange(60)
    )


def _date_time(rng):
    return _date(rng) + "T" + _time(rng) + "Z"


def _g_year(rng):
    return "%04d" % rng.randrange(1970, 2100)


def _any_uri(rng):
    return "https://example.invalid/%s/%d" % (rng.choice(_WORDS), rng.randrange(1000))


def _language(rng):
    return rng.choice(("en", "de", "fr", "ja", "en-US"))


def default_datatype_samplers():
    """A fresh registry of the built-in datatype samplers."""
    return {
        "string": _string,
        "normalizedString": _token,
        "token": _token,
        "integer": _integer,
        "int": _integer,
        "long": _integer,
        "short": _integer,
        "nonNegativeInteger": _non_negative_integer,
        "positiveInteger": _positive_integer,
        "decimal": _decimal,
        "double": _double,
        "float": _double,
        "boolean": _boolean,
        "date": _date,
        "time": _time,
        "dateTime": _date_time,
        "gYear": _g_year,
        "anyURI": _any_uri,
        "language": _language,
    }


_CANONICAL = {
    "string": "text",
    "normalizedString": "text",
    "token": "token",
    "integer": "0",
    "int": "0",
    "long": "0",
    "short": "0",
    "nonNegativeInteger": "0",
    "positiveInteger": "1",
    "decimal": "0.0",
    "double": "0.0e0",
    "float": "0.0e0",
    "boolean": "true",
    "date": "2000-01-01",
    "time": "00:00:00",
    "dateTime": "2000-01-01T00:00:00Z",
    "gYear": "2000",
    "anyURI": "https://example.invalid/",
    "language": "en",
}


def canonical_value(type_name):
    """Fixed representative value, used by exhaustive enumeration."""
    return _CANONICAL.get(type_name, type_name)


@functools.cache
def _not_xml_char():
    """A pattern for a character outside XML 1.0's Char production, which
    no document holds.  Only value tables need it, and it takes about
    10 ms to compile (CPython 3.11 on a 2-core VM), so it is compiled on
    first use, not at import."""
    return re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _table_sampler(values):
    values = tuple(values)

    def sample(rng):
        return values[rng.randrange(len(values))]

    return sample


def load_value_table(path):
    """Read a JSON value-table file into a sampler registry; raise
    ValueError for a malformed table or a value holding a character that
    XML 1.0 does not allow."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("value table must be a JSON object of name -> list")
    registry = {}
    not_xml_char = _not_xml_char()
    for name, values in raw.items():
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, str) for v in values)
        ):
            raise ValueError(
                "value table entry %r must be a nonempty list of strings" % name
            )
        for v in values:
            if not_xml_char.search(v):
                raise ValueError(
                    "value table entry %r holds %r, with a character XML "
                    "does not allow" % (name, v)
                )
        registry[name] = _table_sampler(values)
    return registry


def merge_registries(overrides=None):
    """Defaults plus user overrides; overrides win on name clashes."""
    registry = default_datatype_samplers()
    if overrides:
        registry.update(overrides)
    return registry
