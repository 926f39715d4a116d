"""Command line pipeline: compile, solve, sample.

    boltzxml compile grammar.rng -o grammar.gfs
    boltzxml solve grammar.gfs -o grammar.oracle [--x auto]
    boltzxml sample grammar.rng grammar.oracle -n 500 [-e 0.1] [options]

Exit codes: 0 success, 1 sampling exhausted for every requested document,
2 input error (bad grammar, file format, digest mismatch), 3 solver error,
4 partial success (some documents sampled, some exhausted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .datatypes import load_value_table
from .errors import (
    BoltzXmlError,
    ExhaustedError,
    OracleMismatchError,
    SamplingError,
    SolverError,
)
from .newton import load_oracle, save_oracle, solve
from .relaxng import parse_grammar
from .sampler import DEFAULT_MAX_ATTEMPTS, Sampler, SamplerConfig, SizeWindow
from .system import compile_grammar, load_system

__all__ = ["main"]

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def _sample_to_file(sampler, config, target, xml_declaration):
    """Write one document to a temporary file beside target, then rename it.

    When the document exhausts its budget or anything else fails, the
    temporary file is removed and target is left as it was."""
    partial = target.with_name(target.name + ".tmp")
    try:
        with open(partial, "wb") as sink:
            stats = sampler.sample_to_sink(
                config, sink, xml_declaration=xml_declaration
            )
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return stats


def _rejected_sizes(histogram):
    """Summary of an exhausted document's rejected draws for --stats.

    Sizes of -1 mark walks stopped once they passed the window's upper
    bound; the min, low median and max cover the finished walks, null when
    none finished.  The low median is the first size, in order, at which
    the running count reaches half the finished walks."""
    sizes = sorted(size for size in histogram if size >= 0)
    finished = sum(histogram[size] for size in sizes)
    median = None
    seen = 0
    for size in sizes:
        seen += histogram[size]
        if 2 * seen >= finished:
            median = size
            break
    return {
        "tooLarge": histogram.get(-1, 0),
        "rejectedMin": sizes[0] if sizes else None,
        "rejectedMedian": median,
        "rejectedMax": sizes[-1] if sizes else None,
    }


def _load_grammar(path):
    """Parse and compile a grammar file; returns (grammar, system)."""
    with open(path, "rb") as fh:
        data = fh.read()
    grammar = parse_grammar(data, source=str(path))
    system = compile_grammar(
        grammar, grammar_digest=hashlib.sha256(data).hexdigest()
    )
    return grammar, system


# ---------------------------------------------------------------------------


def cmd_compile(args):
    grammar_path = Path(args.grammar)
    grammar, system = _load_grammar(grammar_path)
    out = Path(args.output) if args.output else grammar_path.with_suffix(".gfs")
    system.save(out)
    print(
        "%d equations, %d monomials, %d element definitions -> %s"
        % (system.n_equations, system.n_monomials, len(grammar.defines), out)
    )
    return EXIT_OK


def cmd_solve(args):
    system = load_system(args.system)
    x = args.x if args.x == "auto" else float(args.x)
    # the solver imports numpy on first use; "solved in" leaves that out
    import numpy  # noqa: F401

    started = time.perf_counter()
    oracle = solve(system, x)
    elapsed = time.perf_counter() - started
    out = Path(args.output) if args.output else Path(args.system).with_suffix(".oracle")
    save_oracle(oracle, out)
    if oracle.rho_lower is not None:
        print(
            "singularity bracket [%.17g, %.17g]"
            % (oracle.rho_lower, oracle.rho_upper)
        )
    print("x %.17g" % oracle.x)
    print("iterations %d" % oracle.iterations)
    print("residual %.3g" % oracle.residual)
    print("newton runs %d (%s)" % (oracle.newton_runs, oracle.method or "explicit x"))
    print("solved in %.1f ms -> %s" % (elapsed * 1000.0, out))
    return EXIT_OK


def cmd_sample(args):
    if args.count < 1:
        raise ValueError("--count must be at least 1, got %d" % args.count)
    if args.seed < 0:
        raise ValueError("--seed must not be negative, got %d" % args.seed)
    if args.max_attempts < 1:
        raise ValueError(
            "--max-attempts must be at least 1, got %d" % args.max_attempts
        )
    grammar, system = _load_grammar(args.grammar)
    oracle = load_oracle(args.oracle)
    try:
        sampler = Sampler(grammar, oracle, system=system)
    except OracleMismatchError as exc:
        raise OracleMismatchError(
            "%s: %s" % (args.oracle, exc.reason),
            "re-run 'boltzxml solve' on the current grammar",
        ) from None

    overrides = load_value_table(args.datatype_plugin) if args.datatype_plugin else None
    window = SizeWindow(args.size, args.tolerance)
    sampler.check_window(window)
    sampler.registry_for(overrides)  # a missing datatype fails before any output
    if args.tolerance == 0.0:
        print(
            "warning: exact-size sampling (tolerance 0) has quadratic "
            "expected cost in the target size",
            file=sys.stderr,
        )

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    stats_fh = open(args.stats, "w", encoding="utf-8") if args.stats else None

    produced = 0
    exhausted = 0
    try:
        for index in range(args.count):
            seed = args.seed + index
            config = SamplerConfig(
                window=window, seed=seed, max_attempts=args.max_attempts,
                registry=overrides,
            )
            started = time.perf_counter()
            try:
                if out_dir:
                    stats = _sample_to_file(
                        sampler, config, out_dir / ("doc-%05d.xml" % index),
                        args.xml_declaration,
                    )
                else:
                    stats = sampler.sample_to_sink(
                        config,
                        sys.stdout.buffer,
                        xml_declaration=args.xml_declaration,
                    )
                    sys.stdout.buffer.write(b"\n")
                    sys.stdout.buffer.flush()
            except ExhaustedError as exc:
                exhausted += 1
                print(
                    "document %d: %s" % (index, exc),
                    file=sys.stderr,
                )
                outcome = {
                    "status": "exhausted",
                    "attempts": exc.attempts,
                    **_rejected_sizes(exc.histogram),
                }
            else:
                produced += 1
                outcome = {
                    "status": "ok",
                    "attempts": stats.attempts,
                    "draws": stats.draws,
                    "size": stats.size,
                    "countMillis": round(stats.count_seconds * 1000.0, 3),
                    "writeMillis": round(stats.write_seconds * 1000.0, 3),
                }
            if stats_fh:
                millis = (time.perf_counter() - started) * 1000.0
                record = {
                    "docIndex": index,
                    **outcome,
                    "seed": seed,
                    "millis": round(millis, 3),
                }
                stats_fh.write(json.dumps(record) + "\n")
    finally:
        if stats_fh:
            stats_fh.close()

    if produced and not exhausted:
        return EXIT_OK
    if produced:
        return EXIT_PARTIAL
    return EXIT_EXHAUSTED


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boltzxml",
        description="Uniform random XML documents from RELAX NG grammars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="translate a grammar into its equation system"
    )
    p_compile.add_argument("grammar", help="RELAX NG grammar file (XML syntax)")
    p_compile.add_argument("-o", "--output", help="system file to write (.gfs)")
    p_compile.set_defaults(func=cmd_compile)

    p_solve = sub.add_parser(
        "solve", help="locate the singularity and evaluate the system"
    )
    p_solve.add_argument("system", help="system file produced by compile")
    p_solve.add_argument("-o", "--output", help="oracle file to write")
    p_solve.add_argument(
        "--x",
        default="auto",
        help="evaluation point, or 'auto' to back off from the singularity",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sample = sub.add_parser(
        "sample", help="draw random documents of controlled size"
    )
    p_sample.add_argument("grammar", help="RELAX NG grammar file")
    p_sample.add_argument("oracle", help="oracle file produced by solve")
    p_sample.add_argument(
        "-n", "--size", type=int, required=True, help="target document size"
    )
    p_sample.add_argument(
        "-e",
        "--tolerance",
        type=float,
        default=0.1,
        help="relative size window half-width (default 0.1; 0 = exact size)",
    )
    p_sample.add_argument("--seed", type=int, default=0, help="base random seed")
    p_sample.add_argument(
        "--count", type=int, default=1, help="number of documents to draw"
    )
    p_sample.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="rejection attempts per document before giving up",
    )
    p_sample.add_argument(
        "--datatype-plugin",
        help="JSON file of datatype name -> list of values",
    )
    p_sample.add_argument("--out", help="directory for doc-NNNNN.xml files")
    p_sample.add_argument("--stats", help="NDJSON per-document stats file")
    p_sample.add_argument(
        "--xml-declaration",
        action="store_true",
        help="start each document with an XML declaration",
    )
    p_sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except (SamplingError, ExhaustedError) as exc:
        # sampling setup problems are input errors; per-document exhaustion
        # is handled inside cmd_sample
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (BoltzXmlError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
