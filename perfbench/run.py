#!/usr/bin/env python3
"""Benchmark of boltzxml: end-to-end and per-layer figures per workload.

    python3 perfbench/run.py --workload ternary-1k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --digests

Run from the root of a checkout; the program is imported from its
``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in turn and ends with one object whose metric names carry the
workload as a prefix.  ``--digests`` prints the reference-digest lines
kept in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NAMES = ("ternary-1k", "feed-leaves", "schema-auto")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    package = SRC / "boltzxml"
    if not (package / "__init__.py").is_file():
        print("perfbench: no boltzxml sources at %s" % package, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import boltzxml

    if Path(boltzxml.__file__).resolve().parent != package.resolve():
        print("perfbench: imported boltzxml from %s" % boltzxml.__file__, file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    if args.digests:
        for name in NAMES:
            workload = WORKLOADS[name]
            _, digest = bench.reference_digest(workload, workload.grammar_bytes())
            print("reference-digest %s %s" % (name, digest))
        return 0
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = bench.run(WORKLOADS[name], args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            "%s/%s" % (name, metric): value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
