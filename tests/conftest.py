"""Shared fixtures.

Solving a system at x=auto costs about a dozen Newton runs (29 on the
pole grammar feed), so grammars, compiled systems, and oracles are built
once per session and handed out by name.
The feed grammar is pole-type (its generating function has a simple pole,
not a square-root branch point), so near-singular tuning produces
astronomically large documents; its shared oracle is solved at the
explicit subcritical point x=0.55 instead of AUTO.
"""

from pathlib import Path

import pytest

from boltzxml import (
    bundled_grammar_path,
    compile_grammar,
    list_bundled_grammars,
    parse_grammar_file,
    solve,
)

FEED_X = 0.55


@pytest.fixture(scope="session")
def grammars():
    return {
        name: parse_grammar_file(bundled_grammar_path(name))
        for name in list_bundled_grammars()
    }


@pytest.fixture(scope="session")
def systems(grammars):
    return {name: compile_grammar(g) for name, g in grammars.items()}


@pytest.fixture(scope="session")
def oracles(systems):
    tables = {}
    for name, system in systems.items():
        tables[name] = solve(system, FEED_X if name == "feed" else "auto")
    return tables


@pytest.fixture(scope="session")
def grammar_paths():
    return {
        name: Path(bundled_grammar_path(name)) for name in list_bundled_grammars()
    }
