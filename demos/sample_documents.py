"""
Sampling random XML documents near a target size
================================================

A Boltzmann sampler draws documents with probability proportional to
x^size, so every document of a given size is equally likely.  Free
draws have wildly varying sizes; restricting to a window around a
target keeps the uniformity-per-size property and costs only rejection
attempts.
"""

import random
from statistics import mean, median

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    events_to_bytes,
    load_bundled_grammar,
    solve,
)

grammar = load_bundled_grammar("ternary")
oracle = solve(compile_grammar(grammar))

# free draws: no size control, heavy-tailed spread (the counting pass
# alone is enough to see the sizes; no document is materialized)
rng = random.Random(42)
sampler = Sampler(grammar, oracle)
sizes = [sampler.free_size(rng, ceiling=10**6) for _ in range(2000)]
print("free draw sizes (2000 draws at the auto evaluation point)")
print("  min %d   median %d   max %d" % (min(sizes), median(sizes), max(sizes)))
print()

# windowed draws: keep only sizes within 10 percent of the target
config = SamplerConfig(window=SizeWindow(200, 0.1), seed=7)
sample = sampler.sample_in_window(config)
body = events_to_bytes(sample.events)
print("windowed draw, target 200, tolerance 0.1")
print("  accepted size %d after %d attempts" % (sample.size, sample.attempts))
print("  first 120 bytes of the document:")
print("  " + body[:120].decode("utf-8"))
print()

# the same seed always reproduces the same document
again = sampler.sample_in_window(config)
assert events_to_bytes(again.events) == body
print("same seed, same bytes: reproducible")
print()

# rejection cost across targets: attempts grow slowly with size
print("  target   accepted   attempts (mean over 20 docs)")
for n in (100, 400, 1600):
    counts = []
    accepted = []
    for i in range(20):
        cfg = SamplerConfig(
            window=SizeWindow(n, 0.1), seed=1000 + i, max_attempts=100_000
        )
        s = sampler.sample_in_window(cfg)
        counts.append(s.attempts)
        accepted.append(s.size)
    print("  %6d   %8.0f   %.1f" % (n, mean(accepted), mean(counts)))
