"""
Checking documents back against their grammar
=============================================

Sampled output should never need trusting on faith.  The package ships
an independent structural matcher that derives a document from the
grammar's patterns; here it confirms a batch of samples from the most
involved bundled grammar and then catches hand-broken variants.
"""

import copy
import xml.etree.ElementTree as ET

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    events_to_bytes,
    load_bundled_grammar,
    matches,
    solve,
)

# the feed grammar nests channel metadata, optional per-item fields and
# typed leaf values under an attributed root element
grammar = load_bundled_grammar("feed")
sampler = Sampler(grammar, solve(compile_grammar(grammar), 0.55))

good = 0
for i in range(200):
    config = SamplerConfig(
        window=SizeWindow(40, 0.5), seed=i, max_attempts=100_000
    )
    sample = sampler.sample_in_window(config)
    root = ET.fromstring(events_to_bytes(sample.events))
    if matches(grammar, root):
        good += 1
print("validated %d/200 sampled feed documents" % good)
print()

# the matcher checks names, child order and counts, with attributes in
# any order, so structural damage is caught; leaf values are out of
# scope by design (the counting semantics treat all values of a type
# alike)
sample = sampler.sample_in_window(
    SamplerConfig(window=SizeWindow(40, 0.5), seed=3)
)
root = ET.fromstring(events_to_bytes(sample.events))

broken = copy.deepcopy(root)
broken.tag = "blog"
print("renamed root element        matches: %s" % matches(grammar, broken))

broken = copy.deepcopy(root)
del broken.attrib["version"]
print("dropped required attribute  matches: %s" % matches(grammar, broken))

broken = copy.deepcopy(root)
broken.find("channel").append(ET.Element("intruder"))
print("appended unknown child      matches: %s" % matches(grammar, broken))

broken = copy.deepcopy(root)
channel = broken.find("channel")
channel.remove(channel.find("description"))
print("removed required child      matches: %s" % matches(grammar, broken))
