"""Golden counting plans: the whole plan the counting walk runs must not
change.

The golden samples pin the bytes of a few seeds, so they check only the
ops those seeds reach.  Here each counting plan is dumped whole and its
sha256 compared, with min_size, for the five bundled grammars at x=auto
and at x = 0.3, and for the frozen schemas in SCHEMAS at x=auto.  The
dump writes an op as the tuple it is; a list of ops (a plan, a branch or
a repetition's child) is numbered where it first appears and written as
@number wherever it appears again, so the dump ends on recursive plans
and pins which lists are shared.

To re-record after an intended change of a plan, run
    PYTHONPATH=src python tests/test_golden_plans.py
paste its output over GOLDEN and announce the change in CHANGES.md."""

import hashlib
from pathlib import Path

import pytest

from boltzxml import (
    Sampler,
    bundled_grammar_path,
    compile_grammar,
    list_bundled_grammars,
    parse_grammar_file,
    solve,
)

DATA = Path(__file__).parent / "data"
SCHEMAS = ("schema-10-3-3", "schema-13-80-16", "schema-4-16-8", "schema-6-12-4")
EXPLICIT_X = 0.3

# (grammar, x): (sha256 of the counting plan's dump, min_size)
GOLDEN = {
    ("attrs", "auto"):
        ("3168b24be6504f4bcea29dfd144988aad057adaec60d08e2d2f5bb4fe658cc4c", 2),
    ("attrs", 0.3):
        ("d5cc2b528695523a279704045ee7e9d5eb5b060784401c76e44baf47b44a03fe", 2),
    ("binary", "auto"):
        ("e9b2d265df4219c6d130d4788bfd947e41a9e23f49ee5163187eb7efc0c1fa3b", 1),
    ("binary", 0.3):
        ("527f9aa4091ff216a4e274f00b3753ca66d9b8e7cb7b512397b362013a57e391", 1),
    ("feed", "auto"):
        ("45df0630e4126f22ead9a6226b181a75a643c2be142e769220a0133917983eb4", 6),
    ("feed", 0.3):
        ("6b35a2e57fc2fb242e4493e676334fb1cf6dadd6adefe321c34248afe4ef5cbc", 6),
    ("oneormore", "auto"):
        ("83a904d5d71907df0ae1eb70af12e4910e7620673f871849b974d357334a5d29", 2),
    ("oneormore", 0.3):
        ("2c1c6b724264ccf62d331c0ca655123947268ea1b0b485a1def0ee6c33cdc092", 2),
    ("ternary", "auto"):
        ("915627552027858f8bcbca51683ae540f6ff7aa886f49fc1a98cf158b5c084e8", 1),
    ("ternary", 0.3):
        ("24d73212962d1b5cb0f923f94d1819551cfa34e4f694f8f2b3ba4a2b39837690", 1),
    ("schema-10-3-3", "auto"):
        ("169a059a46f5390281145425cfe95a0f2423bb4667d37120be0af1d54af3735d", 3),
    ("schema-13-80-16", "auto"):
        ("85cbd15479fc81ac587dd70135e01fca000eb4c6cef6740e155185ccad504991", 2),
    ("schema-4-16-8", "auto"):
        ("c9714bedff5c0c81e286a04294d9ac05f6d3d26fd1e5eb417fce1f234f49836a", 2),
    ("schema-6-12-4", "auto"):
        ("153ac04d6383ea8d923561b93a734c03ae3055e8f38747f06abfd1797d3e34d5", 3),
}

_CLOSE_LIST, _CLOSE_TUPLE = object(), object()


def plan_dump(plan):
    """Text of a plan, written without recursion."""
    labels, parts, stack = {}, [], [plan]
    while stack:
        item = stack.pop()
        if item is _CLOSE_LIST:
            parts.append("]")
        elif item is _CLOSE_TUPLE:
            parts.append(")")
        elif isinstance(item, list):
            if id(item) in labels:
                parts.append("@%d" % labels[id(item)])
                continue
            labels[id(item)] = len(labels)
            parts.append("[")
            stack.append(_CLOSE_LIST)
            stack.extend(reversed(item))
        elif isinstance(item, tuple):
            parts.append("(")
            stack.append(_CLOSE_TUPLE)
            stack.extend(reversed(item))
        else:
            parts.append(repr(item))
    return " ".join(parts)


def _cases():
    for name in sorted(list_bundled_grammars()):
        for x in ("auto", EXPLICIT_X):
            yield name, x
    for name in SCHEMAS:
        yield name, "auto"


def _record(name, x):
    if name in SCHEMAS:
        grammar = parse_grammar_file(DATA / (name + ".rng"))
    else:
        grammar = parse_grammar_file(bundled_grammar_path(name))
    system = compile_grammar(grammar)
    sampler = Sampler(grammar, solve(system, x), system=system)
    digest = hashlib.sha256(plan_dump(list(sampler._count_start)).encode())
    return digest.hexdigest(), sampler.min_size


@pytest.mark.parametrize("name, x", list(_cases()))
def test_counting_plan_is_unchanged(name, x):
    assert _record(name, x) == GOLDEN[name, x]


if __name__ == "__main__":
    for name, x in _cases():
        digest, min_size = _record(name, x)
        x = '"auto"' if x == "auto" else repr(x)
        print('    ("%s", %s):\n        ("%s", %d),' % (name, x, digest, min_size))
