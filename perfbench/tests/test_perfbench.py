"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Short runs of every workload with every check on, the grammar generator's
determinism, and the checks rejecting corrupted documents and oracles.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from boltzxml import (  # noqa: E402
    compile_grammar,
    load_bundled_grammar,
    matches,
    parse_grammar,
    solve,
)

import checks  # noqa: E402
from schema import generate_schema  # noqa: E402
from workloads import FEED_X, SCHEMA_LEAVES, SCHEMA_RECURSIVE, SCHEMA_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_every_check(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 20
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = _run("--workload", "feed-leaves", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run("--workload", "ternary-1k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- grammar generator ------------------------------------------------------


def test_generator_gives_the_same_grammar_for_the_same_seed():
    first = generate_schema(SCHEMA_SEED, SCHEMA_RECURSIVE, SCHEMA_LEAVES)
    assert first == generate_schema(SCHEMA_SEED, SCHEMA_RECURSIVE, SCHEMA_LEAVES)
    assert first != generate_schema(SCHEMA_SEED + 1, SCHEMA_RECURSIVE, SCHEMA_LEAVES)


def test_generated_grammar_is_solvable_at_auto_below_a_branch_point():
    grammar = parse_grammar(generate_schema(2, recursive=5, leaves=4))
    system = compile_grammar(grammar)
    oracle = solve(system)
    equations = checks.parse_system(system.to_text())
    assert checks.fixed_point_problems(equations, oracle.x, oracle.values) == []
    assert checks.near_singularity_problems(equations, oracle.x, oracle.values) == []


# -- document checks --------------------------------------------------------

TERNARY = load_bundled_grammar("ternary")
GOOD = b"<t><t/><t><t/><t/><t/></t><t/></t>"  # 7 elements


def _check(data, bounds=(1, 10), size=7, bytes_written=None):
    problems, root = checks.check_document(
        data,
        size=size,
        bytes_written=len(data) if bytes_written is None else bytes_written,
        bounds=bounds,
        grammar=TERNARY,
        matches=matches,
    )
    if root is not None:
        problems += checks.check_ternary_tree(root)
    return problems


def test_a_good_document_passes():
    assert _check(GOOD) == []


def test_truncated_bytes_are_rejected():
    assert _check(GOOD[:-4], bytes_written=len(GOOD))  # fewer bytes than reported
    assert _check(GOOD[:-4])  # not well-formed


def test_a_t_element_with_two_children_is_rejected():
    problems = _check(b"<t><t/><t/></t>", size=3)
    assert any("2 children" in p for p in problems)
    assert "document does not match the grammar" in problems


def test_sizes_outside_the_window_or_misreported_are_rejected():
    assert any("outside" in p for p in _check(GOOD, bounds=(900, 1100)))
    assert any("recounted" in p for p in _check(GOOD, size=8))


def test_window_bounds_are_exact():
    assert checks.window_bounds(1000, "0.1") == (900, 1100)
    assert checks.window_bounds(200, "0.1") == (180, 220)
    assert checks.window_bounds(7, "0.15") == (6, 8)


def test_feed_leaves_must_be_in_lexical_form():
    from xml.etree import ElementTree

    good = ElementTree.fromstring(
        "<c><link>https://example.invalid/a/1</link><pubDate>2001-02-03</pubDate></c>"
    )
    bad = ElementTree.fromstring("<c><link>not a uri</link><pubDate>2001-02-30</pubDate></c>")
    assert checks.check_feed_leaves(good) == []
    assert len(checks.check_feed_leaves(bad)) == 2


# -- oracle checks ----------------------------------------------------------


def test_ternary_oracle_checks():
    oracle = solve(compile_grammar(TERNARY))
    assert checks.ternary_oracle_problems(oracle) == []
    shifted = dataclasses.replace(oracle, rho_lower=0.53, rho_upper=0.54)
    assert checks.ternary_oracle_problems(shifted)
    wrong = dataclasses.replace(oracle, values={"t": oracle.values["t"] * 1.001})
    assert checks.ternary_oracle_problems(wrong)


def test_feed_oracle_checks():
    system = compile_grammar(load_bundled_grammar("feed"))
    oracle = solve(system, FEED_X)
    assert checks.feed_oracle_problems(oracle) == []
    assert abs(checks.feed_mean_size(FEED_X) - 1000.0) < 1.0
    equations = checks.parse_system(system.to_text())
    assert checks.fixed_point_problems(equations, oracle.x, oracle.values) == []
    # far below the pole the Jacobian is nowhere near singular
    low = solve(system, FEED_X / 2)
    assert checks.near_singularity_problems(equations, low.x, low.values)
    values = dict(oracle.values, item=oracle.values["item"] * 1.01)
    assert checks.fixed_point_problems(equations, oracle.x, values)
    assert checks.feed_oracle_problems(dataclasses.replace(oracle, values=values))
