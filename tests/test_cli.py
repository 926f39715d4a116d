"""The boltzxml command line: pipeline wiring, exit codes, output formats."""

import json
import os
import random
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import boltzxml
from boltzxml import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    load_oracle,
    load_system,
    parse_grammar_file,
)
from boltzxml.cli import (
    EXIT_EXHAUSTED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_SOLVER,
    _rejected_sizes,
    main,
)

# directory holding the package under test, for subprocess runs
SRC = Path(boltzxml.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, grammar_paths):
    """ternary grammar compiled and solved once for the sample tests."""
    root = tmp_path_factory.mktemp("cli")
    grammar = root / "ternary.rng"
    grammar.write_bytes(grammar_paths["ternary"].read_bytes())
    assert main(["compile", str(grammar)]) == EXIT_OK
    assert main(["solve", str(root / "ternary.gfs")]) == EXIT_OK
    return root


def test_compile_reports_and_writes(tmp_path, grammar_paths, capsys):
    grammar = tmp_path / "binary.rng"
    grammar.write_bytes(grammar_paths["binary"].read_bytes())
    out = tmp_path / "custom.gfs"
    assert main(["compile", str(grammar), "-o", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "1 equations, 2 monomials, 1 element definitions" in printed
    system = load_system(out)
    assert system.start == "b"
    # the grammar digest inside ties the file to its source bytes
    import hashlib

    assert system.grammar_digest == hashlib.sha256(grammar.read_bytes()).hexdigest()


def test_solve_auto_prints_bracket(workdir, capsys):
    capsys.readouterr()
    assert main(["solve", str(workdir / "ternary.gfs"), "-o",
                 str(workdir / "again.oracle")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "singularity bracket [" in out
    assert "x 0.52913" in out
    assert "iterations" in out and "residual" in out
    assert re.search(r"^newton runs \d+ \(augmented\)$", out, re.M), out
    oracle = load_oracle(workdir / "again.oracle")
    assert oracle.rho_lower is not None


def test_solve_explicit_x(workdir, capsys):
    capsys.readouterr()
    assert main(["solve", str(workdir / "ternary.gfs"), "--x", "0.4",
                 "-o", str(workdir / "at04.oracle")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bracket" not in out
    assert "x 0.4" in out
    assert "newton runs 1 (explicit x)" in out
    assert load_oracle(workdir / "at04.oracle").rho_lower is None


def test_sample_to_stdout(workdir, capsys):
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "13", "-e", "0.5", "--seed", "4",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("<t") and out.endswith("\n")


def test_sample_to_directory_with_stats(workdir, tmp_path, capsys):
    docs = tmp_path / "docs"
    stats_path = tmp_path / "stats.ndjson"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "25", "-e", "0.2", "--seed", "7", "--count", "3",
        "--out", str(docs), "--stats", str(stats_path),
    ])
    assert code == EXIT_OK
    files = sorted(p.name for p in docs.iterdir())
    assert files == ["doc-00000.xml", "doc-00001.xml", "doc-00002.xml"]
    records = [json.loads(line) for line in stats_path.read_text().splitlines()]
    assert len(records) == 3
    for index, record in enumerate(records):
        assert set(record) == {
            "docIndex", "status", "attempts", "draws", "size", "seed", "millis",
            "countMillis", "writeMillis",
        }
        assert record["status"] == "ok"
        assert 0.0 <= record["countMillis"] + record["writeMillis"] <= record["millis"]
        assert record["docIndex"] == index
        assert record["seed"] == 7 + index
        assert 20 <= record["size"] <= 30
        assert record["attempts"] >= 1
        # every ternary walk draws at least its root's choice
        assert record["draws"] >= record["attempts"]


def test_sample_documents_are_deterministic(workdir, tmp_path):
    outs = []
    for run in ("one", "two"):
        docs = tmp_path / run
        assert main([
            "sample", str(workdir / "ternary.rng"),
            str(workdir / "ternary.oracle"),
            "-n", "25", "-e", "0.2", "--seed", "11", "--count", "2",
            "--out", str(docs),
        ]) == EXIT_OK
        outs.append([p.read_bytes() for p in sorted(docs.iterdir())])
    assert outs[0] == outs[1]


def test_xml_declaration_flag(workdir, capsys):
    assert main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "4", "-e", "0.5", "--xml-declaration",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_exact_size_warning(workdir, capsys):
    assert main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "13", "-e", "0", "--seed", "1",
    ]) == EXIT_OK
    err = capsys.readouterr().err
    assert "quadratic" in err


def test_datatype_plugin(tmp_path, grammar_paths, capsys):
    grammar = tmp_path / "attrs.rng"
    grammar.write_bytes(grammar_paths["attrs"].read_bytes())
    assert main(["compile", str(grammar)]) == EXIT_OK
    assert main(["solve", str(tmp_path / "attrs.gfs")]) == EXIT_OK
    plugin = tmp_path / "values.json"
    plugin.write_text(json.dumps({"integer": ["12321"]}))
    capsys.readouterr()
    assert main([
        "sample", str(grammar), str(tmp_path / "attrs.oracle"),
        "-n", "8", "-e", "0.5", "--seed", "3",
        "--datatype-plugin", str(plugin),
    ]) == EXIT_OK
    assert 'id="12321"' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_grammar_file(tmp_path, capsys):
    code = main(["compile", str(tmp_path / "ghost.rng")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_malformed_grammar(tmp_path, capsys):
    bad = tmp_path / "bad.rng"
    bad.write_text("<grammar><start>")
    assert main(["compile", str(bad)]) == EXIT_INPUT
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        # refused by the parser's normal-form check
        ('<oneOrMore><attribute name="k"/></oneOrMore>',
         "attribute 'k' inside oneOrMore would repeat"),
        # refused by the compiler
        ("<oneOrMore><optional><text/></optional></oneOrMore>",
         "oneOrMore applied to a pattern that can match empty content"),
    ],
    ids=["grammar", "compile"],
)
def test_grammar_and_compile_errors_are_located_alike(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.rng"
    bad.write_text(
        '<grammar xmlns="http://relaxng.org/ns/structure/1.0">\n'
        '  <start><ref name="a"/></start>\n  <define name="a">\n'
        '    <element name="a">%s</element>\n  </define>\n</grammar>\n' % content
    )
    assert main(["compile", str(bad)]) == EXIT_INPUT == 2
    err = capsys.readouterr().err
    assert re.match(r"error: %s:4:\d+: %s" % (re.escape(str(bad)), message), err), err
    assert not (tmp_path / "bad.gfs").exists()


def test_solver_divergence_exit_code(tmp_path, grammar_paths, capsys):
    grammar = tmp_path / "feed.rng"
    grammar.write_bytes(grammar_paths["feed"].read_bytes())
    assert main(["compile", str(grammar)]) == EXIT_OK
    code = main(["solve", str(tmp_path / "feed.gfs"), "--x", "0.9"])
    assert code == EXIT_SOLVER
    assert "error:" in capsys.readouterr().err


def test_coefficient_past_float_range_is_a_solver_error(tmp_path, capsys):
    # a system file may hold any integer coefficient; one that no float
    # holds is refused by name, with the solver's exit code
    system = tmp_path / "big.gfs"
    system.write_text(
        "boltzxml-system 1\ngrammar-digest none\nclasses 1\nstart a\n"
        "eq a = 1 1 + 1%s 2 a:2\n" % ("0" * 400)
    )
    code = main(["solve", str(system), "--x", "0.1"])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "error: a coefficient of class 'a' is past the float range\n"


@pytest.mark.parametrize("x", ["nan", "inf", "-0.1"])
def test_solve_refuses_x_outside_zero_to_infinity(workdir, tmp_path, capsys, x):
    # refused before any Newton run, so no singularity search and no
    # numpy warning on stderr
    out = tmp_path / "bad.oracle"
    code = main(["solve", str(workdir / "ternary.gfs"), "--x=" + x, "-o", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: x must be a finite number at least 0, got %s\n" % x
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value", [("class t", "nan"), ("class t", "-5"), ("x", "nan")]
)
def test_corrupt_oracle_value_is_an_input_error(
    workdir, tmp_path, capsys, field, value
):
    # refused where it is read, before any draw and before --out exists
    text = (workdir / "ternary.oracle").read_text()
    lines = [
        "%s %s" % (field, value) if line.rpartition(" ")[0] == field else line
        for line in text.splitlines()
    ]
    assert lines != text.splitlines()
    oracle = tmp_path / "corrupt.oracle"
    oracle.write_text("\n".join(lines) + "\n")
    docs = tmp_path / "docs"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(oracle),
        "-n", "10", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    lineno = 1 + next(i for i, line in enumerate(lines) if line.startswith(field + " "))
    assert capsys.readouterr().err == (
        "error: line %d: bad value %r, not a finite number at least 0\n"
        % (lineno, value)
    )
    assert not docs.exists()


def test_digest_mismatch(workdir, tmp_path, grammar_paths, capsys):
    other = tmp_path / "binary.rng"
    other.write_bytes(grammar_paths["binary"].read_bytes())
    code = main([
        "sample", str(other), str(workdir / "ternary.oracle"),
        "-n", "9", "-e", "0.5",
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "re-run 'boltzxml solve'" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_is_an_input_error(workdir, tmp_path, capsys, count):
    docs = tmp_path / "docs"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "10", "--count", count, "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "--count must be at least 1" in capsys.readouterr().err
    assert not docs.exists()


def test_negative_seed_is_an_input_error(workdir, tmp_path, capsys):
    docs = tmp_path / "docs"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "10", "--seed", "-2", "--count", "5", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "--seed must not be negative" in capsys.readouterr().err
    assert not docs.exists()


@pytest.mark.parametrize("attempts", ["0", "-1"])
def test_max_attempts_below_one_leaves_no_output(workdir, tmp_path, capsys, attempts):
    docs, stats = tmp_path / "docs", tmp_path / "stats.ndjson"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "9", "-e", "0.5", "--max-attempts", attempts,
        "--out", str(docs), "--stats", str(stats),
    ])
    assert code == EXIT_INPUT
    assert "--max-attempts must be at least 1" in capsys.readouterr().err
    assert not docs.exists()
    assert not stats.exists()


def test_window_below_smallest_document_leaves_no_output(
    grammar_paths, tmp_path, capsys
):
    # a feed document has at least 6 nodes: rss, its version, channel and
    # channel's title, link and description
    grammar = tmp_path / "feed.rng"
    grammar.write_bytes(grammar_paths["feed"].read_bytes())
    assert main(["compile", str(grammar)]) == EXIT_OK
    assert main(["solve", str(tmp_path / "feed.gfs"), "--x", "0.55"]) == EXIT_OK
    capsys.readouterr()
    docs, stats = tmp_path / "docs", tmp_path / "stats.ndjson"
    code = main([
        "sample", str(grammar), str(tmp_path / "feed.oracle"),
        "-n", "3", "-e", "0", "--out", str(docs), "--stats", str(stats),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "upper bound 3" in err and "smallest document size 6" in err
    assert not docs.exists()
    assert not stats.exists()


def test_bad_plugin_file(workdir, tmp_path, capsys):
    plugin = tmp_path / "nope.json"
    plugin.write_text("[]")
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "13", "-e", "0.5", "--datatype-plugin", str(plugin),
    ])
    assert code == EXIT_INPUT
    assert "value table" in capsys.readouterr().err


def test_plugin_value_outside_xml_leaves_no_output(workdir, tmp_path, capsys):
    plugin = tmp_path / "values.json"
    plugin.write_text(json.dumps({"string": ["a\u0001b"]}))
    docs = tmp_path / "docs"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "13", "-e", "0.5", "--datatype-plugin", str(plugin),
        "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "character XML does not allow" in capsys.readouterr().err
    assert not docs.exists()


def test_missing_datatype_leaves_no_output(tmp_path, capsys):
    grammar = tmp_path / "hex.rng"
    grammar.write_text(
        '<grammar xmlns="http://relaxng.org/ns/structure/1.0" '
        'datatypeLibrary="http://www.w3.org/2001/XMLSchema-datatypes">'
        '<start><element name="h"><data type="hexBinary"/></element></start>'
        "</grammar>"
    )
    assert main(["compile", str(grammar)]) == EXIT_OK
    assert main(["solve", str(tmp_path / "hex.gfs"), "--x", "0.5"]) == EXIT_OK
    capsys.readouterr()
    docs = tmp_path / "docs"
    stats_path = tmp_path / "s.ndjson"
    code = main([
        "sample", str(grammar), str(tmp_path / "hex.oracle"),
        "-n", "1", "-e", "0", "--out", str(docs), "--stats", str(stats_path),
    ])
    assert code == EXIT_INPUT
    assert "hexBinary" in capsys.readouterr().err
    assert not docs.exists() and not stats_path.exists()


def test_all_documents_exhausted(workdir, tmp_path, capsys):
    # no ternary document has size 2
    docs = tmp_path / "docs"
    stats_path = tmp_path / "stats.ndjson"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "2", "-e", "0", "--max-attempts", "30", "--count", "2",
        "--out", str(docs), "--stats", str(stats_path),
    ])
    assert code == EXIT_EXHAUSTED
    err = capsys.readouterr().err
    assert "document 0" in err and "document 1" in err
    # neither a document nor its temporary file survives
    assert list(docs.iterdir()) == []
    records = [json.loads(line) for line in stats_path.read_text().splitlines()]
    assert [r["docIndex"] for r in records] == [0, 1]
    for record in records:
        assert record["status"] == "exhausted"
        assert record["attempts"] == 30
        assert record["tooLarge"] <= 30
        # ternary sizes are 1, 4, 7, ...: the finished walks missed size 2
        if record["tooLarge"] < 30:
            low, mid, high = (
                record["rejectedMin"], record["rejectedMedian"], record["rejectedMax"]
            )
            assert 1 <= low <= mid <= high and 2 not in (low, high)


def test_rejected_sizes_summarize_the_histogram():
    rng = random.Random(0)
    histograms = [Counter({-1: 7}), Counter({5: 1}), Counter({-1: 2, 0: 3})]
    for _ in range(200):
        sizes = [rng.choice((-1, rng.randrange(40))) for _ in range(rng.randrange(1, 60))]
        histograms.append(Counter(sizes))
    for histogram in histograms:
        finished = sorted(size for size in histogram.elements() if size >= 0)
        summary = _rejected_sizes(histogram)
        assert summary["tooLarge"] == histogram[-1]
        if finished:
            assert summary["rejectedMin"] == finished[0]
            assert summary["rejectedMedian"] == statistics.median_low(finished)
            assert summary["rejectedMax"] == finished[-1]
        else:
            assert summary["rejectedMin"] is None
            assert summary["rejectedMedian"] is None
            assert summary["rejectedMax"] is None


def test_failed_write_leaves_no_file(workdir, tmp_path, monkeypatch, capsys):
    def broken(self, config, sink, **kwargs):
        sink.write(b"<t>")
        raise OSError("disk full")

    monkeypatch.setattr(Sampler, "sample_to_sink", broken)
    docs = tmp_path / "docs"
    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "13", "-e", "0.5", "--out", str(docs),
    ])
    assert code == EXIT_INPUT
    assert "disk full" in capsys.readouterr().err
    assert list(docs.iterdir()) == []


def test_cli_import_does_not_load_numpy():
    # only the solver needs numpy; sampling from a saved oracle must not pay for it
    probe = "import sys, boltzxml.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_does_not_compile_the_value_table_pattern(tmp_path):
    # only --datatype-plugin checks values for characters XML forbids, so
    # the pattern, slow to compile, waits for the first value table
    table = tmp_path / "table.json"
    table.write_text('{"string": ["a"]}', encoding="utf-8")
    probe = (
        "import boltzxml.cli; from boltzxml import datatypes as d; "
        "before = d._not_xml_char.cache_info().currsize; "
        "d.load_value_table(%r); "
        "print(before, d._not_xml_char.cache_info().currsize)" % str(table)
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.split() == ["0", "1"]


def test_partial_success(workdir, capsys):
    # find neighboring seeds where one succeeds and one fails within the
    # attempt budget; the scan is deterministic, so the pair is stable
    grammar = parse_grammar_file(workdir / "ternary.rng")
    oracle = load_oracle(workdir / "ternary.oracle")
    system = load_system(workdir / "ternary.gfs")
    sampler = Sampler(grammar, oracle, system=system)
    budget = 40
    window = SizeWindow(40, 0.0)

    def succeeds(seed):
        try:
            sampler.sample_in_window(
                SamplerConfig(window=window, seed=seed, max_attempts=budget)
            )
            return True
        except Exception:
            return False

    pair = None
    prev = succeeds(0)
    for seed in range(1, 400):
        cur = succeeds(seed)
        if prev != cur:
            pair = seed - 1
            break
        prev = cur
    assert pair is not None, "no mixed adjacent seed pair found in scan"

    code = main([
        "sample", str(workdir / "ternary.rng"), str(workdir / "ternary.oracle"),
        "-n", "40", "-e", "0", "--seed", str(pair), "--count", "2",
        "--max-attempts", str(budget),
    ])
    assert code == EXIT_PARTIAL
    capsys.readouterr()


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["sample"])  # missing required arguments
