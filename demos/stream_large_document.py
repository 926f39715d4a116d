"""
Streaming a very large document to disk
=======================================

Generation is two passes: a counting pass that only sizes candidate
documents, and a second walk that re-runs the accepted draw.  That walk
writes the document's bytes straight to the sink as it goes, with no
event objects in between.  Only an element whose attributes can follow
its content holds back its subtree until its start tag is complete, and
a repetition holds at most 64 copies of its child's ops at a time, so
memory follows the tree's depth, not the document's size.
"""

import tempfile
import time
from pathlib import Path

from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    load_bundled_grammar,
    solve,
)

grammar = load_bundled_grammar("ternary")
sampler = Sampler(grammar, solve(compile_grammar(grammar)))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "big.xml"
    config = SamplerConfig(
        window=SizeWindow(500_000, 0.2), seed=5, max_attempts=100_000
    )
    t0 = time.perf_counter()
    with open(path, "wb") as sink:
        stats = sampler.sample_to_sink(config, sink, xml_declaration=True)
    elapsed = time.perf_counter() - t0

    print("target 500000 elements, tolerance 0.2")
    print("  accepted size     %d elements" % stats.size)
    print("  rejected attempts %d" % (stats.attempts - 1))
    print("  bytes written     %d" % stats.bytes_written)
    print("  wall time         %.2f s" % elapsed)
    print("  on-disk size      %d bytes" % path.stat().st_size)

    # the file is well formed end to end; spot-check the frame
    head = path.read_bytes()[:60]
    tail = path.read_bytes()[-20:]
    print("  head: %s..." % head.decode("utf-8"))
    print("  tail: ...%s" % tail.decode("utf-8"))
