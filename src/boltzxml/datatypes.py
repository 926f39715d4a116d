"""Leaf value generation for text, data and value patterns.

A datatype sampler is a callable taking a random.Random and returning a
lexically valid string for its type.  The defaults cover the common XSD
types, one row of _TYPES each, which also holds the type's fixed value
for exhaustive enumeration; an integer type's values lie in its XSD
value space.  A data pattern's params are not enforced.  Any default can
be overridden, and new names added, by passing a registry mapping to the
sampler or the --datatype-plugin CLI flag, whose file is JSON of the form
{"typename": ["value", ...]} (values drawn uniformly).  Every sampler is
deterministic given the generator state.
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


def _integers(low, high):
    """A sampler of the integers low..high, each as likely."""
    stop = high + 1

    def sample(rng):
        return str(rng.randrange(low, stop))

    return sample


def _decimal(rng):
    return "%d.%02d" % (rng.randrange(-10**4, 10**4 + 1), rng.randrange(100))


def _double(rng):
    return "%.6e" % (rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-3, 7))


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


def _any_uri(rng):
    return "https://example.invalid/%s/%d" % (rng.choice(_WORDS), rng.randrange(1000))


# each built-in type: its sampler, and the fixed value exhaustive
# enumeration uses.  An integer type draws from a range inside its XSD
# value space (XML Schema Part 2, section 3.3).
_TYPES = {
    "string": (_string, "text"),
    "normalizedString": (_token, "text"),
    "token": (_token, "token"),
    "integer": (_integers(-10**6, 10**6), "0"),
    "int": (_integers(-10**6, 10**6), "0"),
    "long": (_integers(-10**6, 10**6), "0"),
    "short": (_integers(-32768, 32767), "0"),
    "nonNegativeInteger": (_integers(0, 10**6), "0"),
    "positiveInteger": (_integers(1, 10**6), "1"),
    "decimal": (_decimal, "0.0"),
    "double": (_double, "0.0e0"),
    "float": (_double, "0.0e0"),
    "boolean": (lambda rng: rng.choice(("true", "false")), "true"),
    "date": (_date, "2000-01-01"),
    "time": (_time, "00:00:00"),
    "dateTime": (_date_time, "2000-01-01T00:00:00Z"),
    "gYear": (lambda rng: "%04d" % rng.randrange(1970, 2100), "2000"),
    "anyURI": (_any_uri, "https://example.invalid/"),
    "language": (lambda rng: rng.choice(("en", "de", "fr", "ja", "en-US")), "en"),
}


def default_datatype_samplers():
    """A fresh registry of the built-in datatype samplers."""
    return {name: sampler for name, (sampler, _) in _TYPES.items()}


def canonical_value(type_name):
    """Fixed representative value, used by exhaustive enumeration; an
    unknown type's is its own name."""
    row = _TYPES.get(type_name)
    return type_name if row is None else row[1]


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
