"""
Exact counting and the uniformity guarantee
===========================================

The same equation system that drives the sampler also yields exact
coefficient counts.  This script checks the counts for binary trees
against the Catalan numbers, enumerates one size class exhaustively,
and then verifies empirically that windowed sampling hits each distinct
document of that size equally often.
"""

import math
from collections import Counter

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    count_coefficients,
    enumerate_documents,
    events_from_doc,
    load_bundled_grammar,
    skeleton_key,
    solve,
)

grammar = load_bundled_grammar("binary")
system = compile_grammar(grammar)

# binary trees with n internal nodes are counted by Catalan numbers
table = count_coefficients(system, 15)
catalan = [math.comb(2 * k, k) // (k + 1) for k in range(8)]
print("size      ", " ".join("%5d" % (2 * k + 1) for k in range(8)))
print("coefficient", " ".join("%5d" % table.coefficient(2 * k + 1) for k in range(8)))
print("catalan    ", " ".join("%5d" % c for c in catalan))
print()

# every document of size 7 (the 5 shapes of a 3-internal-node tree)
docs = enumerate_documents(grammar, 7, system=system, table=table)
keys = sorted(skeleton_key(events_from_doc(d)) for d in docs)
print("all %d documents of size 7:" % len(docs))
for key in keys:
    print("  " + key)
print()

# sample at exact size 7 (tolerance zero) and tally which of the five
# documents appears; a uniform sampler splits the draws evenly
sampler = Sampler(grammar, solve(system), system=system)
counts = Counter()
draws = 5000
for i in range(draws):
    config = SamplerConfig(
        window=SizeWindow(7, 0.0), seed=i, max_attempts=100_000
    )
    sample = sampler.sample_in_window(config)
    counts[skeleton_key(sample.events)] += 1

expected = draws / len(docs)
print("%d exact-size draws over %d documents (expected %.0f each)" % (
    draws, len(docs), expected))
chi2 = 0.0
for key in keys:
    observed = counts[key]
    chi2 += (observed - expected) ** 2 / expected
    print("  %-40s %5d" % (key, observed))
print("chi-square %.2f on %d degrees of freedom" % (chi2, len(docs) - 1))
