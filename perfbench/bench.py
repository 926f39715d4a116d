"""Timed passes, layer probes and output checks of one benchmark run.

A run of one workload does a fixed amount of work, set by its seed list:

1. warm-up, untimed: one set-up and the reference documents, whose bytes
   make the reference digest;
2. the timed pass: set-ups (and, untraced, cold CLI runs) interleaved
   with chunks of the seed list, so that set-up, CLI and document times
   are all spread over the whole run rather than taken in one slow or
   fast stretch;
3. untimed passes: tracemalloc peak on a seed subset, a second draw of
   every tenth seed (same bytes), and the checks.

With tracing on the timed pass runs twice, untraced and then traced, and
the difference is the tracing overhead; the per-layer figures come from
the traced pass and from probes that call one layer at a time.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from boltzxml import (
    CeilingExceededError,
    ExhaustedError,
    Sampler,
    SamplerConfig,
    SizeWindow,
    compile_grammar,
    estimate_singularity,
    load_oracle,
    matches,
    newton_evaluate,
    parse_grammar,
    save_oracle,
    serialize_stream,
    solve,
)

import checks
from spans import Tracer
from workloads import REFERENCE_SEEDS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
README = HERE / "README.md"

CLI_REPS = 9  # timed cold CLI runs per untraced run; their median is cli_cold_s
CLI_DOCS = 3  # documents one cold CLI run draws
PROBE_REPS = 3  # repeats of each single-call layer probe
PEAK_DOCS = 25  # documents in the tracemalloc pass
RECHECK_EVERY = 10  # every tenth seed is drawn again and must give the same bytes
WINDOW_PROBE_DOCS = 40
REPLAY_DOCS = 20
REPLAY_TRIES = 5000
VALUE_CALLS = 2000

_DIGEST_RE = re.compile(r"^reference-digest (\S+) ([0-9a-f]{64})$", re.M)


class BenchError(Exception):
    """The benchmark could not run a step (a CLI call failed)."""


@dataclass
class Ready:
    grammar: object
    system: object
    oracle: object
    sampler: object


@dataclass
class Draw:
    seed: int
    seconds: float
    first_byte: "float | None"
    data: bytes
    stats: object  # StreamStats, None when the attempt budget ran out


@dataclass
class Pass:
    setup_times: list
    draws: list
    ready: Ready

    @property
    def seconds(self):
        return sum(self.setup_times) + sum(d.seconds for d in self.draws)


class FirstByteSink:
    """In-memory sink that notes the time of its first write.

    After the first write, ``write`` is the buffer's own C method, so the
    timing costs nothing per later write."""

    def __init__(self):
        self.buffer = io.BytesIO()
        self.first = None
        self.write = self._first_write

    def _first_write(self, data):
        self.first = time.perf_counter()
        self.write = self.buffer.write
        return self.buffer.write(data)


class DiscardSink:
    """Sink that keeps no bytes, so a memory peak is the sampler's own."""

    def write(self, data):
        return len(data)


def window_of(workload):
    return SizeWindow(workload.n, float(workload.eps))


def set_up(workload, data, tracer, trace):
    """Grammar bytes to a ready Sampler, one span per layer."""
    with tracer.span("relaxng.parse_grammar", trace):
        grammar = parse_grammar(data, source=workload.name)
    with tracer.span("system.compile_grammar", trace):
        # the digest the CLI records, so the oracle also serves `boltzxml sample`
        system = compile_grammar(grammar, grammar_digest=hashlib.sha256(data).hexdigest())
    with tracer.span("newton.solve", trace):
        oracle = solve(system, workload.x)
    with tracer.span("sampler.Sampler", trace):
        sampler = Sampler(grammar, oracle, system=system)
    return Ready(grammar, system, oracle, sampler)


def draw(sampler, window, seed, tracer):
    sink = FirstByteSink()
    config = SamplerConfig(window=window, seed=seed)
    span = tracer.span("sampler.sample_to_sink", seed)
    start = time.perf_counter()
    try:
        with span:
            stats = sampler.sample_to_sink(config, sink)
    except ExhaustedError:
        stats = None
    end = time.perf_counter()
    if stats is not None:
        span.note(attempts=stats.attempts, size=stats.size, bytes=stats.bytes_written)
    first = None if sink.first is None else sink.first - start
    return Draw(seed, end - start, first, sink.buffer.getvalue(), stats)


def timed_pass(workload, data, seeds, setups, tracer, cli=None):
    """Set-ups interleaved with chunks of the seed list.

    With a ColdCli, CLI_REPS cold runs are spread over the chunks too, so
    every timed quantity samples the whole run's stretch of machine speed."""
    window = window_of(workload)
    bounds = [len(seeds) * k // setups for k in range(setups + 1)]
    setup_times, draws = [], []
    gc.collect()
    for k in range(setups):
        start = time.perf_counter()
        ready = set_up(workload, data, tracer, "setup-%d" % k)
        setup_times.append(time.perf_counter() - start)
        for seed in seeds[bounds[k]:bounds[k + 1]]:
            draws.append(draw(ready.sampler, window, seed, tracer))
        if cli is not None:
            for _ in range((k + 1) * CLI_REPS // setups - k * CLI_REPS // setups):
                cli.run_once()
    return Pass(setup_times, draws, ready)


def reference_digest(workload, data):
    """Set up once and draw the reference seeds; doubles as the warm-up."""
    tracer = Tracer(False)
    ready = set_up(workload, data, tracer, "warm-up")
    window = window_of(workload)
    digest = hashlib.sha256()
    for seed in REFERENCE_SEEDS:
        digest.update(draw(ready.sampler, window, seed, tracer).data)
    return ready, digest.hexdigest()


def readme_digests():
    try:
        text = README.read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    return dict(_DIGEST_RE.findall(text))


def peak_alloc_mb(sampler, window, seeds):
    peaks = []
    tracemalloc.start()
    try:
        for seed in seeds:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sampler.sample_to_sink(SamplerConfig(window=window, seed=seed), DiscardSink())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 1e6


# -- CLI subprocesses -------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args, cwd):
    """Wall time of one subprocess; raises BenchError when it fails."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(
            "%s exited %d: %s"
            % (" ".join(args), proc.returncode, proc.stderr.decode(errors="replace")[-400:])
        )
    return elapsed


def cli_dir(workload):
    path = RUNS / ("cli-%s-%d" % (workload.name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class ColdCli:
    """Cold `boltzxml sample` runs on a pre-solved oracle.

    Each run draws the run's first CLI_DOCS seeds into its own --out
    directory; afterwards their bytes must equal the in-process draws of
    the same seeds.  The first run fills the page cache and writes
    bytecode, and is not timed."""

    def __init__(self, workload, data, oracle, first_seed):
        self.workload = workload
        self.first_seed = first_seed
        self.work = cli_dir(workload)
        (self.work / "grammar.rng").write_bytes(data)
        save_oracle(oracle, self.work / "grammar.oracle")
        self.outs = []
        self.times = []
        try:
            self.run_once()
        except BaseException:
            self.close()
            raise
        self.times.clear()

    def run_once(self):
        out = "docs-%d" % len(self.outs)
        self.outs.append(out)
        w = self.workload
        self.times.append(run_cli(
            [
                "-m", "boltzxml", "sample", "grammar.rng", "grammar.oracle",
                "-n", str(w.n), "-e", w.eps, "--seed", str(self.first_seed),
                "--count", str(CLI_DOCS), "--out", out,
            ],
            self.work,
        ))

    @property
    def documents(self):
        return len(self.outs) * CLI_DOCS

    def problems(self, draws):
        return [
            "CLI run %s document %d differs from seed %d" % (out, index, doc.seed)
            for out in self.outs
            for index, doc in enumerate(draws[:CLI_DOCS])
            if (self.work / out / ("doc-%05d.xml" % index)).read_bytes() != doc.data
        ]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


# -- checks -----------------------------------------------------------------


def oracle_problems(workload, ready):
    """Check the oracle against Phi evaluated here from the saved system file."""
    RUNS.mkdir(exist_ok=True)
    path = RUNS / ("system-%s-%d.gfs" % (workload.name, os.getpid()))
    try:
        ready.system.save(path)
        equations = checks.parse_system(path.read_text(encoding="utf-8"))
    finally:
        path.unlink(missing_ok=True)
    oracle = ready.oracle
    problems = checks.fixed_point_problems(equations, oracle.x, oracle.values)
    if workload.x == "auto":
        problems += checks.near_singularity_problems(equations, oracle.x, oracle.values)
    if workload.oracle_check is not None:
        problems += workload.oracle_check(oracle)
    return problems


def document_problems(workload, grammar, draws):
    problems = []
    for d in draws:
        if d.stats is None:
            continue
        found, root = checks.check_document(
            d.data,
            size=d.stats.size,
            bytes_written=d.stats.bytes_written,
            bounds=workload.bounds,
            grammar=grammar,
            matches=matches,
        )
        if root is not None and workload.tree_check is not None:
            found += workload.tree_check(root)
        problems.extend("seed %d: %s" % (d.seed, p) for p in found)
    return problems


def redraw_problems(sampler, window, draws):
    """The same seed sampled twice gives identical bytes."""
    tracer = Tracer(False)
    return [
        "seed %d: second draw gave different bytes" % d.seed
        for d in draws[::RECHECK_EVERY]
        if draw(sampler, window, d.seed, tracer).data != d.data
    ]


# -- metrics ----------------------------------------------------------------


def end_to_end(timed, peak_mb, cli_s):
    ok = [d for d in timed.draws if d.stats is not None]
    doc_seconds = sum(d.seconds for d in timed.draws)
    doc_ms = [d.seconds * 1e3 for d in ok]
    return {
        "setup_s": (statistics.median(timed.setup_times), "s"),
        "docs_per_s": (len(ok) / doc_seconds, "docs/s"),
        "mb_per_s": (sum(len(d.data) for d in ok) / doc_seconds / 1e6, "MB/s"),
        "doc_ms_p50": (statistics.median(doc_ms), "ms"),
        "doc_ms_p90": (statistics.quantiles(doc_ms, n=10)[8], "ms"),
        "first_byte_ms_p50": (statistics.median(d.first_byte * 1e3 for d in ok), "ms"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "cli_cold_s": (cli_s, "s"),
    }


def _timed(tracer, name, trace, fn, *args, **kwargs):
    with tracer.span(name, trace):
        return fn(*args, **kwargs)


def layer_probes(workload, data, traced, untraced, seeds, run_seed, tracer, problems):
    """Per-layer figures from the traced pass plus one-layer probes."""
    ready = traced.ready
    system, oracle, sampler = ready.system, ready.oracle, ready.sampler
    window = window_of(workload)
    lower, upper = window.lower, window.upper
    ms = 1e3
    m = {
        "relaxng.parse_ms": (tracer.median("relaxng.parse_grammar") * ms, "ms"),
        "system.compile_ms": (tracer.median("system.compile_grammar") * ms, "ms"),
        "system.classes": (system.n_equations, "count"),
        "system.monomials": (system.n_monomials, "count"),
        "sampler.build_ms": (tracer.median("sampler.Sampler") * ms, "ms"),
    }

    # newton: the bracket search and one evaluation at the oracle's x
    for _ in range(PROBE_REPS):
        _timed(tracer, "newton.estimate_singularity", "probe", estimate_singularity, system)
        result = _timed(tracer, "newton.newton_evaluate", "probe", newton_evaluate, system, oracle.x)
    m["newton.bracket_ms"] = (tracer.median("newton.estimate_singularity") * ms, "ms")
    m["newton.point_ms"] = (tracer.median("newton.newton_evaluate") * ms, "ms")
    m["newton.iterations"] = (result.iterations, "count")

    # sampler: attempts from the traced pass, then the window without bytes
    ok = [d for d in traced.draws if d.stats is not None]
    attempts = sum(d.stats.attempts for d in ok)
    m["sampler.attempts_per_doc"] = (attempts / len(ok), "count")
    m["sampler.acceptance"] = (len(ok) / attempts, "ratio")
    by_seed = {d.seed: d for d in ok}
    probe_seeds = [s for s in seeds[:WINDOW_PROBE_DOCS] if s in by_seed]
    samples = [
        _timed(tracer, "sampler.sample_in_window", seed, sampler.sample_in_window,
               SamplerConfig(window=window, seed=seed))
        for seed in probe_seeds
    ]
    m["sampler.window_ms_per_doc"] = (
        tracer.total("sampler.sample_in_window") / len(samples) * ms, "ms")

    # serialize: the window probe's events, already built
    written = 0
    for seed, sample in zip(probe_seeds, samples):
        buf = io.BytesIO()
        written += _timed(tracer, "serialize.serialize_stream", seed, serialize_stream,
                          sample.events, buf)
        if buf.getvalue() != by_seed[seed].data:
            problems.append("seed %d: sample_in_window bytes differ from sample_to_sink" % seed)
    m["serialize.mb_per_s"] = (written / tracer.total("serialize.serialize_stream") / 1e6, "MB/s")
    m["serialize.bytes_per_doc"] = (sum(len(d.data) for d in ok) / len(ok), "B")

    # counting pass: as many walks as the first 20 documents needed
    walks = sum(d.stats.attempts for d in ok[:20])
    rng = random.Random(run_seed)
    with tracer.span("sampler.free_size", "probe") as span:
        for _ in range(walks):
            sampler.free_size(rng, ceiling=upper)
        span.note(walks=walks)
    m["sampler.count_us_per_walk"] = (tracer.total("sampler.free_size") / walks * 1e6, "us")

    # replay: free draws of at least a quarter of the lower bound
    kept = []
    for j in range(REPLAY_TRIES):
        seed = run_seed * 1_000_000 + 500_000 + j
        try:
            _, size = sampler.free_sample(seed, ceiling=upper)
        except CeilingExceededError:
            continue
        if size >= lower // 4:
            kept.append(seed)
            if len(kept) == REPLAY_DOCS:
                break
    nodes = sum(
        _timed(tracer, "sampler.free_sample", seed, sampler.free_sample, seed, ceiling=upper)[1]
        for seed in kept
    )
    m["sampler.replay_ns_per_node"] = (tracer.total("sampler.free_sample") / nodes * 1e9, "ns")

    # datatypes: values drawn per document, and the cost of one call of each
    registry = sampler.registry_for()
    counts = Counter()

    def counted(name):
        fn = registry[name]

        def sample(r):
            counts[name] += 1
            return fn(r)

        return sample

    wrapped = {name: counted(name) for name in sampler.used_types}
    for seed in probe_seeds[:20]:
        sampler.sample_in_window(SamplerConfig(window=window, seed=seed, registry=wrapped))
    m["datatypes.values_per_doc"] = (sum(counts.values()) / len(probe_seeds[:20]), "count")
    # a grammar that draws no values (ternary) times the whole default registry
    used = sorted(sampler.used_types) or sorted(registry)
    rng = random.Random(run_seed)
    per_call = []
    for name in used:
        fn = registry[name]
        with tracer.span("datatypes." + name, "probe"):
            for _ in range(VALUE_CALLS):
                fn(rng)
        per_call.append(tracer.total("datatypes." + name) / VALUE_CALLS)
    m["datatypes.value_us"] = (statistics.mean(per_call) * 1e6, "us")

    # cli: fresh interpreters, one at a time
    work = cli_dir(workload)
    try:
        (work / "grammar.rng").write_bytes(data)
        import_s, compile_s, solve_s = [], [], []
        for _ in range(PROBE_REPS):
            import_s.append(run_cli(["-c", "import boltzxml"], work))
            compile_s.append(run_cli(["-m", "boltzxml", "compile", "grammar.rng", "-o", "g.gfs"], work))
            solve_s.append(run_cli(
                ["-m", "boltzxml", "solve", "g.gfs", "-o", "g.oracle", "--x", str(workload.x)], work))
        if (work / "g.gfs").read_text(encoding="utf-8") != system.to_text():
            problems.append("CLI compile wrote a different system")
        if load_oracle(work / "g.oracle").values != oracle.values:
            problems.append("CLI solve gave different class values")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    m["cli.import_s"] = (statistics.median(import_s), "s")
    m["cli.compile_s"] = (statistics.median(compile_s), "s")
    m["cli.solve_s"] = (statistics.median(solve_s), "s")

    overhead = (traced.seconds - untraced.seconds) / untraced.seconds * 100.0
    m["trace.overhead_pct"] = (overhead, "%")
    return m


# -- one run ----------------------------------------------------------------


def run(workload, seed, seconds, trace, out=print):
    """Run one workload; print its figures and return the result object."""
    data = workload.grammar_bytes()
    seeds = workload.doc_seeds(seed, seconds)
    setups = workload.setups(seconds)
    window = window_of(workload)
    load_before = os.getloadavg()

    warm, ref_digest = reference_digest(workload, data)
    problems = []
    cli = None if trace else ColdCli(workload, data, warm.oracle, seeds[0])
    try:
        untraced = timed_pass(workload, data, seeds, setups, Tracer(False), cli)
        if cli is not None:
            problems += cli.problems(untraced.draws)
    finally:
        if cli is not None:
            cli.close()
    problems += oracle_problems(workload, untraced.ready)
    draws = list(untraced.draws)
    if trace:
        tracer = Tracer(True)
        traced = timed_pass(workload, data, seeds, setups, tracer)
        draws += traced.draws
        metrics = layer_probes(workload, data, traced, untraced, seeds, seed, tracer, problems)
        RUNS.mkdir(exist_ok=True)
        trace_path = RUNS / ("trace-%s-seed%d.jsonl" % (workload.name, seed))
        tracer.write(trace_path)
    else:
        peak = peak_alloc_mb(untraced.ready.sampler, window, seeds[:PEAK_DOCS])
        metrics = end_to_end(untraced, peak, statistics.median(cli.times))

    attempted = len(draws) + (0 if trace else cli.documents)
    failed = sum(1 for d in draws if d.stats is None)
    problems += document_problems(workload, untraced.ready.grammar, untraced.draws)
    problems += redraw_problems(warm.sampler, window, untraced.draws)
    if trace:
        problems += [
            "seed %d: traced pass gave different bytes" % a.seed
            for a, b in zip(untraced.draws, traced.draws)
            if a.data != b.data
        ]
    run_digest = hashlib.sha256()
    for d in untraced.draws:
        run_digest.update(d.data)

    out("workload %s seed %d seconds %d trace %d" % (workload.name, seed, seconds, trace))
    out("machine nproc %d loadavg %s -> %s" % (
        os.cpu_count(), _load(load_before), _load(os.getloadavg())))
    out("window [%d, %d] documents per pass %d, set-ups per pass %d" % (
        *workload.bounds, len(seeds), setups))
    out("documents attempted %d failed %d" % (attempted, failed))
    for name, (value, unit) in metrics.items():
        out("%-28s %14.6g %s" % (name, value, unit))
    if trace:
        out("tracing overhead: timed pass %.3f s untraced, %.3f s traced" % (
            untraced.seconds, traced.seconds))
        out("trace written to %s" % trace_path.relative_to(HERE.parent))
    out("digest run %s" % run_digest.hexdigest())
    recorded = readme_digests().get(workload.name)
    if recorded is None:
        verdict = "no digest recorded in perfbench/README.md"
    elif recorded == ref_digest:
        verdict = "matches perfbench/README.md"
    else:
        verdict = "DIFFERS from perfbench/README.md (%s)" % recorded
    out("digest reference %s %s" % (ref_digest, verdict))
    for p in problems[:20]:
        out("check FAILED: %s" % p)
    out("checks %s" % ("passed" if not problems else "FAILED (%d problems)" % len(problems)))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _load(triple):
    return " ".join("%.2f" % v for v in triple)
