"""Golden oracles: solve(system, "auto") must reproduce recorded results bit for bit.

The sampler draws from the class values and x of an oracle, so any change
in their last bits changes sampled bytes for a fixed seed.  The recorded
values in data/golden_oracles.json come from the per-monomial loop solver;
every field is compared with ==, not with a tolerance.  The grammars are
the five bundled ones and data/schema-4-16-8.rng, the text of
perfbench/schema.generate_schema(4, 16, 8) (29 classes).

To re-record after an intended change of the solver's output, run
    PYTHONPATH=src python tests/test_golden_oracles.py --write
and announce the change in CHANGES.md."""

import json
import sys
from pathlib import Path

import pytest

from boltzxml import (
    bundled_grammar_path,
    compile_grammar,
    list_bundled_grammars,
    newton_evaluate,
    parse_grammar_file,
    solve,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_oracles.json"
SCHEMA = DATA / "schema-4-16-8.rng"

# auto x of each grammar, as a readable anchor next to the recorded file
ANCHORS = {
    "ternary": 0.5291336220760323,
    "binary": 0.49999995,
    "oneormore": 0.3819659640535049,
    "attrs": 0.377438786379464,
    "feed": 0.61803392100996,
    "schema": 0.3720735276231386,
}

# feed has a pole at (sqrt5 - 1)/2; just below it the Newton iterates reach
# ~3.8e7 and a rounding correction of -0.157 appears, which a divergence
# test with an absolute threshold would misread as a falling step
FEED_NEAR_POLE = 0.6180339828133583


def _grammar_paths():
    paths = {name: bundled_grammar_path(name) for name in list_bundled_grammars()}
    paths["schema"] = SCHEMA
    return paths


def _auto_record(path):
    oracle = solve(compile_grammar(parse_grammar_file(path)), "auto")
    return {
        "x": oracle.x,
        "rho_lower": oracle.rho_lower,
        "rho_upper": oracle.rho_upper,
        "iterations": oracle.iterations,
        "residual": oracle.residual,
        "values": oracle.values,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(ANCHORS))
def test_auto_solve_is_bit_identical(name, golden):
    got = _auto_record(_grammar_paths()[name])
    want = golden[name]
    assert got["x"] == ANCHORS[name] == want["x"]
    for field in ("rho_lower", "rho_upper", "iterations", "residual"):
        assert got[field] == want[field], field
    assert list(got["values"]) == list(want["values"])
    for cls, value in want["values"].items():
        assert got["values"][cls] == value, cls


def test_feed_converges_just_below_its_pole():
    system = compile_grammar(parse_grammar_file(bundled_grammar_path("feed")))
    result = newton_evaluate(system, FEED_NEAR_POLE)
    assert max(result.values.values()) > 1e7
    assert result.residual < 1e-12


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    records = {name: _auto_record(path) for name, path in sorted(_grammar_paths().items())}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
