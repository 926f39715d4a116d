"""Coefficient extraction against closed-form tree counts, and exhaustive
enumeration of small size classes."""

import math
import random
import time
from pathlib import Path

import pytest

from boltzxml import (
    EnumerationBoundError,
    GfSystem,
    IllFoundedSystemError,
    Monomial,
    compile_grammar,
    count_coefficients,
    doc_to_xml,
    enumerate_documents,
    load_system,
    newton_evaluate,
    parse_grammar_file,
    skeleton_key,
    events_from_doc,
)
from boltzxml.system import check_well_founded

SCHEMAS = sorted((Path(__file__).parent / "data").glob("schema-*.rng"))


def fuss_catalan(m):
    # ternary trees with m internal nodes
    return math.comb(3 * m, m) // (2 * m + 1)


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_ternary_counts_match_fuss_catalan(systems):
    table = count_coefficients(systems["ternary"], 40)
    series = table.series()
    for n in range(41):
        if n % 3 == 1:
            assert series[n] == fuss_catalan((n - 1) // 3), n
        else:
            assert series[n] == 0, n


def test_ternary_pinned_values(systems):
    table = count_coefficients(systems["ternary"], 13)
    assert [table.coefficient(n) for n in (1, 4, 7, 10, 13)] == [1, 1, 3, 12, 55]


def test_binary_counts_match_catalan(systems):
    series = count_coefficients(systems["binary"], 21).series()
    for n in range(22):
        if n % 2 == 1:
            assert series[n] == catalan((n - 1) // 2), n
        else:
            assert series[n] == 0, n


def test_attrs_small_counts(systems):
    # size 2: item with its required attribute; size 3: the two lang values
    series = count_coefficients(systems["attrs"], 6).series()
    assert series[:4] == [0, 0, 1, 2]


def test_oneormore_small_counts(systems):
    series = count_coefficients(systems["oneormore"], 4).series()
    assert series == [0, 0, 1, 1, 2]


def test_truncated_series_approaches_newton(systems):
    # partial sums at a point well below the singularity converge to the
    # Newton value; the tail bound is the dropped term over 1 - ratio
    for name, x in (("ternary", 0.4), ("binary", 0.38)):
        system = systems[name]
        series = count_coefficients(system, 260).series()
        total = sum(t * x**n for n, t in enumerate(series))
        assert series[-1] * x**260 < 1e-12
        value = newton_evaluate(system, x).values[system.start]
        assert abs(total - value) < 1e-10, name


def test_per_class_series(systems):
    table = count_coefficients(systems["oneormore"], 6)
    # entries are one element plus either nothing or a whole list
    entry = table.series("entry")
    assert entry[1] == 1 and entry[3] == 1


def test_enumerate_binary_size9(grammars, systems):
    docs = enumerate_documents(grammars["binary"], 9, system=systems["binary"])
    assert len(docs) == 14
    keys = {skeleton_key(events_from_doc(d)) for d in docs}
    assert len(keys) == 14


def test_enumerate_matches_coefficients(grammars, systems):
    # the bundled grammars to size 7, and the frozen schemas to size 12;
    # texts are distinct only for the bundled ones, since each derivation
    # is listed once and schema-6-12-4 has two derivations of one text at 8
    assert len(SCHEMAS) == 5
    cases = [
        (name, grammars[name], systems[name], 7)
        for name in ("ternary", "binary", "attrs", "oneormore", "feed")
    ]
    for path in SCHEMAS:
        grammar = parse_grammar_file(path)
        cases.append((path.stem, grammar, compile_grammar(grammar), 12))
    for name, grammar, system, cutoff in cases:
        table = count_coefficients(system, cutoff)
        for n in range(1, cutoff + 1):
            docs = enumerate_documents(grammar, n, system=system, table=table)
            assert len(docs) == table.coefficient(n), (name, n)
            if name in grammars:
                assert len({doc_to_xml(d) for d in docs}) == len(docs), (name, n)


def test_enumerate_empty_size_class(grammars):
    assert enumerate_documents(grammars["ternary"], 2) == []


def test_enumerate_bound(grammars):
    # t_16 = 273 ternary trees
    with pytest.raises(EnumerationBoundError) as info:
        enumerate_documents(grammars["ternary"], 16, bound=100)
    assert info.value.count == 273
    assert info.value.bound == 100


def test_out_of_range_size(systems):
    table = count_coefficients(systems["ternary"], 5)
    with pytest.raises(ValueError):
        table.coefficient(6)


def test_same_size_terms_that_depend_on_each_other(tmp_path):
    # s = a, a = b + x, b = x + x s^2: the size-n term of s waits on a's,
    # which waits on b's, so each size takes more than two passes;
    # s = 2x + x s^2 counts 2^(k+1) Catalan(k) at size 2k + 1
    path = tmp_path / "chain.gfs"
    path.write_text(
        "boltzxml-system 1\nclasses 3\nstart s\n"
        "eq s = 1 0 a:1\neq a = 1 1 + 1 0 b:1\neq b = 1 1 + 1 1 s:2\n"
    )
    series = count_coefficients(load_system(path), 41).series()
    for n in range(42):
        k, odd = divmod(n, 2)
        assert series[n] == (2 ** (k + 1) * catalan(k) if odd else 0), n
    assert series[1:12:2] == [2, 4, 16, 80, 448, 2688]


def test_recursion_that_never_settles():
    # a = 1 + a grows at size 0 on every pass; load_system would refuse it
    system = GfSystem(
        ["a"], {"a": (Monomial(1, 0, ()), Monomial(1, 0, (("a", 1),)))}, "a"
    )
    with pytest.raises(IllFoundedSystemError, match="zero-size recursion cycle: a -> a"):
        count_coefficients(system, 3)


# ---------------------------------------------------------------------------
# count_coefficients against a naive reference


def kleene_counts(system, cutoff):
    """Counts to size cutoff by iterating Y <- Phi(Y) from zero on series
    truncated there until nothing changes, which a well-founded system
    reaches within (cutoff + 1) * (classes + 1) rounds."""

    def times(a, b):
        return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(cutoff + 1)]

    series = {name: [0] * (cutoff + 1) for name in system.classes}
    for _ in range((cutoff + 1) * (len(system.classes) + 1) + 1):
        nxt = {}
        for name in system.classes:
            total = [0] * (cutoff + 1)
            for mon in system.equations[name]:
                term = [0] * (cutoff + 1)
                if mon.xexp <= cutoff:
                    term[mon.xexp] = mon.coeff
                for cls, exp in mon.powers:
                    for _ in range(exp):
                        term = times(term, series[cls])
                total = [a + b for a, b in zip(total, term)]
            nxt[name] = total
        if nxt == series:
            return series
        series = nxt
    raise AssertionError("the reference iteration does not settle")


def system_of(text):
    """A GfSystem from lines 'name = coeff xexp [class:exp ...] + ...',
    the first line's class being the start."""
    classes, equations = [], {}
    for line in text.strip().splitlines():
        name, _, body = line.partition("=")
        name = name.strip()
        classes.append(name)
        monomials = []
        for token in body.split("+"):
            coeff, xexp, *factors = token.split()
            powers = tuple(sorted(
                (cls, int(exp)) for cls, exp in (f.split(":") for f in factors)
            ))
            monomials.append(Monomial(int(coeff), int(xexp), powers))
        equations[name] = tuple(monomials)
    return GfSystem(classes, equations, classes[0])


HAND_WRITTEN = {
    # D's constant is 0, so A's term of size n reads no B at size n, but
    # the product B*C, which A's B*C*D and E share, reads B at size n
    "shared-product": """
        A = 1 1 + 1 0 B:1 C:1 D:1
        B = 1 0 + 1 1 A:1
        C = 2 0 + 1 1 E:1
        D = 1 1 + 1 1 D:2
        E = 1 0 B:1 C:1 + 1 2
    """,
    "geometric": "a = 1 0 + 1 1 a:1",
    "chain-of-constants": """
        s = 1 0 a:1 + 1 1 s:2
        a = 1 1 + 1 0 b:1
        b = 3 0 + 1 2 s:1 a:1
    """,
    "square-of-a-constant": """
        p = 1 0 q:2 + 1 1 p:1
        q = 2 0 + 1 1 p:1 q:1
    """,
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_counts_equal_the_reference_on_hand_written_systems(name):
    system = system_of(HAND_WRITTEN[name])
    assert count_coefficients(system, 10).counts == kleene_counts(system, 10)


def random_system(rng):
    """A system of one to five classes, each a sum of one to four
    monomials of x^0..x^2 times up to three class factors."""
    names = ["c%d" % i for i in range(rng.randint(1, 5))]
    equations = {}
    for name in names:
        merged = {}
        for _ in range(rng.randint(1, 4)):
            powers = {}
            for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
                cls = rng.choice(names)
                powers[cls] = powers.get(cls, 0) + rng.choice((1, 1, 2))
            key = (rng.choice((0, 0, 1, 2)), tuple(sorted(powers.items())))
            merged[key] = merged.get(key, 0) + rng.randint(1, 2)
        equations[name] = tuple(
            Monomial(coeff, xexp, powers)
            for (xexp, powers), coeff in sorted(merged.items())
        )
    return GfSystem(names, equations, names[0])


def test_a_power_is_made_of_halves():
    # b = x (1 + x)^E counts C(E, n - 1) at size n, whatever E's size
    system = system_of("b = 1 1 a:1000000000\na = 1 0 + 1 1")
    started = time.perf_counter()
    series = count_coefficients(system, 5).series()
    assert time.perf_counter() - started < 1
    assert series == [0] + [math.comb(10**9, n - 1) for n in range(1, 6)]
    # odd and even exponents split unevenly and evenly
    for exp in (2, 3, 5, 7, 12):
        system = system_of("b = 1 1 a:%d + 1 1 b:%d\na = 1 0 + 1 1 b:1" % (exp, exp))
        assert count_coefficients(system, 10).counts == kleene_counts(system, 10)


def test_counts_equal_the_reference_on_random_systems():
    rng = random.Random(28)
    compared = 0
    for _ in range(400):
        system = random_system(rng)
        try:
            check_well_founded(system)
        except IllFoundedSystemError as refused:
            # counting's order meets the same cycles at size 0
            if "cycle" in str(refused):
                with pytest.raises(IllFoundedSystemError, match="cycle"):
                    count_coefficients(system, 8)
            continue
        compared += 1
        assert count_coefficients(system, 8).counts == kleene_counts(system, 8)
    assert compared > 150
