"""
Customizing attribute and text values
=====================================

Structure and leaf values come from separate random streams: the
grammar fixes where a typed value appears, and a datatype registry
decides what string goes there.  Swapping samplers changes the values
without disturbing the document shapes.
"""

import json
import tempfile
from pathlib import Path

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    events_to_bytes,
    load_bundled_grammar,
    load_value_table,
    solve,
)

# the bundled attrs grammar: item elements carrying a required integer
# id attribute and an optional fixed-choice lang attribute
grammar = load_bundled_grammar("attrs")
sampler = Sampler(grammar, solve(compile_grammar(grammar)))


def first_items(body, limit=3):
    lines = body.decode("utf-8").replace("><", ">\n<").splitlines()
    return [ln for ln in lines if "item" in ln][:limit]


# built-in samplers: integers are drawn from a wide default range
config = SamplerConfig(window=SizeWindow(30, 0.3), seed=9)
sample = sampler.sample_in_window(config)
print("default integer sampler")
for line in first_items(events_to_bytes(sample.events)):
    print("  " + line)
print()

# override one type with a custom callable; same seed, same shapes
def small_id(rng):
    return str(rng.randrange(100))

config = SamplerConfig(
    window=SizeWindow(30, 0.3), seed=9, registry={"integer": small_id}
)
sample = sampler.sample_in_window(config)
print("custom integer sampler (ids below 100)")
for line in first_items(events_to_bytes(sample.events)):
    print("  " + line)
print()

# value tables are the file-based flavour of the same mechanism, the
# JSON format the CLI --datatype-plugin flag reads
with tempfile.TemporaryDirectory() as tmp:
    table = Path(tmp) / "ids.json"
    table.write_text(json.dumps({"integer": ["1", "2", "3"]}))
    registry = load_value_table(table)
    config = SamplerConfig(
        window=SizeWindow(30, 0.3), seed=9, registry=registry
    )
    sample = sampler.sample_in_window(config)
    print("value table from %s" % table.name)
    for line in first_items(events_to_bytes(sample.events)):
        print("  " + line)
