"""The benchmark's workloads: which grammar, which x, which window.

Each workload stresses a different layer.  ``ternary-1k`` is
rejection-heavy (hundreds of counting-pass attempts per document, no leaf
values), ``feed-leaves`` is leaf-heavy (a dozen attempts, tens of KB of
typed leaves per document, no singularity search) and ``schema-auto`` is
solver-heavy (a generated schema-sized system solved at x=auto, sampled in
a small window, the only workload on the buffered walk).
"""

from __future__ import annotations

from dataclasses import dataclass

from boltzxml import bundled_grammar_path

import checks
from schema import generate_schema

# x with E[size] = x Y'(x)/Y(x) = 1000 on feed's start class (closed form
# in checks.feed_mean_size), rounded to 7 digits; the pole is at 0.6180340
FEED_X = 0.6174135

# generated grammar of schema-auto: 16 recursive element definitions and
# 8 typed leaf definitions, from generator seed SCHEMA_SEED
SCHEMA_SEED = 4
SCHEMA_RECURSIVE = 16
SCHEMA_LEAVES = 8

# documents whose bytes make the reference digest, the same in every run
REFERENCE_SEEDS = tuple(range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    bundled: "str | None"  # bundled grammar name; None for the generated schema
    x: object  # "auto" or an explicit float
    n: int
    eps: str  # decimal text, so the window bounds are computed exactly
    docs_per_second: int  # documents drawn per second of --seconds
    setups_per_10s: int  # timed set-ups per 10 s of --seconds
    tree_check: object = None  # problems of one parsed document, beyond the common checks
    oracle_check: object = None  # problems of the oracle, beyond the common checks

    def grammar_bytes(self):
        if self.bundled is None:
            text = generate_schema(SCHEMA_SEED, SCHEMA_RECURSIVE, SCHEMA_LEAVES)
            return text.encode("utf-8")
        with open(bundled_grammar_path(self.bundled), "rb") as fh:
            return fh.read()

    @property
    def bounds(self):
        return checks.window_bounds(self.n, self.eps)

    def doc_seeds(self, seed, seconds):
        """The run's fixed seed list: document i draws with seed*10^6 + i."""
        count = max(20, self.docs_per_second * seconds)
        return [seed * 1_000_000 + i for i in range(count)]

    def setups(self, seconds):
        return max(1, round(self.setups_per_10s * seconds / 10))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ternary-1k", "ternary", "auto", 1000, "0.1", 50, 21,
            tree_check=checks.check_ternary_tree,
            oracle_check=checks.ternary_oracle_problems,
        ),
        Workload(
            "feed-leaves", "feed", FEED_X, 1000, "0.1", 50, 300,
            tree_check=checks.check_feed_leaves,
            oracle_check=checks.feed_oracle_problems,
        ),
        Workload("schema-auto", None, "auto", 200, "0.1", 120, 5),
    )
}
