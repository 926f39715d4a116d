"""Grammar-to-polynomial-system translation and the system file format."""

import time

import pytest

from boltzxml import (
    CompileError,
    IllFoundedSystemError,
    SystemFormatError,
    compile_grammar,
    enumerate_documents,
    load_system,
    parse_grammar,
    save_system,
)
from boltzxml.system import check_well_founded

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'


def g(body):
    return parse_grammar('<grammar %s>%s</grammar>' % (RNG, body))


# ---------------------------------------------------------------------------
# translation rules


def test_ternary_system_text(systems):
    assert systems["ternary"].to_text() == (
        "boltzxml-system 1\n"
        "grammar-digest none\n"
        "classes 1\n"
        "start t\n"
        "eq t = 1 1 + 1 1 t:3\n"
    )


def test_binary_system_text(systems):
    assert systems["binary"].to_text() == (
        "boltzxml-system 1\n"
        "grammar-digest none\n"
        "classes 1\n"
        "start b\n"
        "eq b = 1 1 + 1 1 b:2\n"
    )


def test_bundled_system_stats(systems):
    stats = {
        name: (s.n_equations, s.n_monomials) for name, s in systems.items()
    }
    assert stats == {
        "ternary": (1, 2),
        "binary": (1, 2),
        "attrs": (2, 6),
        "oneormore": (3, 5),
        "feed": (8, 13),
    }


def test_attribute_contributes_a_size_factor():
    # element with one required attribute: single document of size 2
    grammar = g(
        '<start><element name="a"><attribute name="k"/></element></start>'
    )
    system = compile_grammar(grammar)
    assert system.to_text().splitlines()[-1] == "eq a = 1 2"


def test_choice_of_values_multiplies_the_coefficient():
    grammar = g(
        '<start><element name="a"><attribute name="k"><choice>'
        "<value>x</value><value>y</value><value>z</value>"
        "</choice></attribute></element></start>"
    )
    system = compile_grammar(grammar)
    assert system.to_text().splitlines()[-1] == "eq a = 3 2"


def test_one_or_more_makes_a_sequence_class(systems):
    text = systems["oneormore"].to_text()
    assert "eq seq:1 = 1 0 entry:1 + 1 0 entry:1 seq:1:1" in text


def test_identical_repetitions_share_a_class():
    # two structurally identical oneOrMore bodies produce one seq class
    grammar = g(
        "<start><ref name='r'/></start>"
        '<define name="r"><element name="r"><group>'
        '<oneOrMore><ref name="x"/></oneOrMore>'
        '<oneOrMore><ref name="x"/></oneOrMore>'
        "</group></element></define>"
        '<define name="x"><element name="x"><empty/></element></define>'
    )
    system = compile_grammar(grammar)
    assert sum(1 for c in system.classes if c.startswith("seq:")) == 1


def test_different_repetitions_get_distinct_classes():
    grammar = g(
        "<start><ref name='r'/></start>"
        '<define name="r"><element name="r"><group>'
        '<oneOrMore><ref name="x"/></oneOrMore>'
        '<oneOrMore><ref name="y"/></oneOrMore>'
        "</group></element></define>"
        '<define name="x"><element name="x"><empty/></element></define>'
        '<define name="y"><element name="y"><empty/></element></define>'
    )
    system = compile_grammar(grammar)
    assert sum(1 for c in system.classes if c.startswith("seq:")) == 2


def test_one_or_more_over_nullable_is_rejected():
    grammar = g(
        '<start><element name="a"><oneOrMore><optional>'
        '<element name="b"><empty/></element>'
        "</optional></oneOrMore></element></start>"
    )
    with pytest.raises(CompileError, match="empty content"):
        compile_grammar(grammar)


def test_one_or_more_over_text_is_rejected():
    # text is a size-0 leaf, so repeating it is a unit repetition
    grammar = g(
        '<start><element name="a"><oneOrMore><text/>'
        "</oneOrMore></element></start>"
    )
    with pytest.raises(CompileError, match="empty content"):
        compile_grammar(grammar)


def test_empty_language_is_rejected():
    grammar = g('<start><element name="a"><notAllowed/></element></start>')
    with pytest.raises(CompileError, match="no documents"):
        compile_grammar(grammar)


def test_unproductive_branch_is_pruned():
    # b admits no documents, so the b branch must vanish from a's equation
    grammar = g(
        "<start><ref name='a'/></start>"
        '<define name="a"><element name="a"><choice><empty/>'
        '<ref name="b"/></choice></element></define>'
        '<define name="b"><element name="b"><notAllowed/></element></define>'
    )
    system = compile_grammar(grammar)
    assert system.classes == ["a"]
    assert system.to_text().splitlines()[-1] == "eq a = 1 1"


def test_attribute_orderings_are_distinct_documents():
    # the two orderings of the same attribute pair count as two documents
    grammar = g(
        '<start><element name="a"><choice>'
        '<group><attribute name="p"/><attribute name="q"/></group>'
        '<group><attribute name="q"/><attribute name="p"/></group>'
        "</choice></element></start>"
    )
    docs = enumerate_documents(grammar, 3)
    assert len(docs) == 2
    orders = {tuple(name for name, _ in d.attrs) for d in docs}
    assert orders == {("p", "q"), ("q", "p")}


def test_well_founded_all_bundled(systems):
    for system in systems.values():
        check_well_founded(system)


# ---------------------------------------------------------------------------
# file format


def test_round_trip(systems, tmp_path):
    for name, system in systems.items():
        path = tmp_path / (name + ".gfs")
        save_system(system, path)
        back = load_system(path)
        assert back == system, name
        assert back.to_text() == system.to_text(), name
        assert back.digest() == system.digest(), name


def test_digest_tracks_content(systems):
    assert systems["ternary"].digest() != systems["binary"].digest()


def test_grammar_digest_survives_round_trip(tmp_path):
    grammar = g('<start><element name="a"><empty/></element></start>')
    system = compile_grammar(grammar, grammar_digest="ab" * 32)
    path = tmp_path / "g.gfs"
    save_system(system, path)
    assert load_system(path).grammar_digest == "ab" * 32


def load_text(tmp_path, text):
    path = tmp_path / "sys.gfs"
    path.write_text(text)
    return load_system(path)


def test_load_merges_duplicate_monomials(tmp_path):
    system = load_text(
        tmp_path,
        "boltzxml-system 1\nclasses 1\nstart a\n"
        "eq a = 1 1 + 1 1 + 2 1 a:1\n",
    )
    assert system.to_text().splitlines()[-1] == "eq a = 2 1 + 2 1 a:1"


def test_load_accepts_nonzero_constant_class(tmp_path):
    # legal by the format even though compiled systems never produce it
    system = load_text(
        tmp_path,
        "boltzxml-system 1\nclasses 1\nstart a\neq a = 1 0 + 1 1 a:1\n",
    )
    from boltzxml import count_coefficients

    assert count_coefficients(system, 6).series() == [1] * 7


@pytest.mark.parametrize(
    "text,match",
    [
        ("not a system\n", "header"),
        ("boltzxml-system 1\nclasses 2\nstart a\neq a = 1 1\n", "2 classes"),
        ("boltzxml-system 1\nclasses 1\nstart a\neq a = 1 1 ghost:1\n", "ghost"),
        ("boltzxml-system 1\nclasses 1\nstart a\neq a = 0 1\n", "positive"),
        ("boltzxml-system 1\nclasses 1\nstart a\neq a = -1 1\n", "positive"),
        ("boltzxml-system 1\nclasses 1\nstart a\neq a = 1\n", "coeff and xexp"),
        ("boltzxml-system 1\nclasses 1\nstart b\neq a = 1 1\n", "start"),
        ("boltzxml-system 1\nstart a\neq a = 1 1\n", "missing classes"),
        ("boltzxml-system 1\nclasses 1\nstart a\neq a = 1 1\nwat\n", "unrecognized"),
        (
            "boltzxml-system 1\nclasses 1\nstart a\neq a = 1 1\neq a = 1 1\n",
            "duplicate",
        ),
    ],
)
def test_load_rejects_malformed(tmp_path, text, match):
    with pytest.raises(SystemFormatError, match=match):
        load_text(tmp_path, text)


def test_load_rejects_zero_size_recursion(tmp_path):
    with pytest.raises(IllFoundedSystemError, match="cycle"):
        load_text(
            tmp_path,
            "boltzxml-system 1\nclasses 1\nstart a\neq a = 1 0 a:1\n",
        )


def zero_size_chain(n, last):
    """Classes c0 ... c(n-1), each x or the next class, a zero-size
    edge; the last class's equation is last."""
    eqs = "".join("eq c%d = 1 1 + 1 0 c%d:1\n" % (i, i + 1) for i in range(n - 1))
    return "boltzxml-system 1\nclasses %d\nstart c0\n%seq c%d = %s\n" % (
        n, eqs, n - 1, last,
    )


def test_load_takes_a_long_chain_of_zero_size_edges(tmp_path):
    # each class has a zero-size edge to the next, so the cycle search
    # walks a path deeper than the default recursion limit
    system = load_text(tmp_path, zero_size_chain(1500, "1 1"))
    assert len(system.classes) == 1500
    # a cycle closed at the chain's end is still named in full
    with pytest.raises(IllFoundedSystemError) as info:
        load_text(tmp_path, zero_size_chain(1500, "1 1 + 1 0 c1496:1"))
    assert str(info.value) == (
        "zero-size recursion cycle: c1496 -> c1497 -> c1498 -> c1499 -> c1496"
    )
    # ending in a constant, every class reads the next at size 0, so each
    # constant waits on the one after it; one pass in their order settles
    # them: c(i) = (n - 1 - i) x + 1
    system = load_text(tmp_path, zero_size_chain(3000, "1 0"))
    assert check_well_founded(system)["c0"] == 1
    from boltzxml import count_coefficients

    assert count_coefficients(system, 2).series() == [1, 2999, 0]


def test_load_rejects_unbounded_constants(tmp_path):
    with pytest.raises(IllFoundedSystemError):
        load_text(
            tmp_path,
            "boltzxml-system 1\nclasses 1\nstart a\neq a = 2 0 + 1 0 a:2\n",
        )


def test_huge_exponent_is_refused_before_it_is_raised(tmp_path):
    # 2 to the 10^9 would be a 125 MB integer; a factor of 2 or more to a
    # power of 64 or more passes the 2^63 cap, so no power is raised
    two_to = "boltzxml-system 1\nclasses 2\nstart b\neq b = 1 1 + 1 0 a:%d\neq a = 2 0\n"
    started = time.perf_counter()
    with pytest.raises(IllFoundedSystemError) as info:
        load_text(tmp_path, two_to % 10**9)
    assert time.perf_counter() - started < 0.5
    assert str(info.value) == "constant terms grow without bound (class 'b')"
    with pytest.raises(IllFoundedSystemError, match="without bound"):
        load_text(tmp_path, two_to % 64)
    assert check_well_founded(load_text(tmp_path, two_to % 63))["b"] == 2**63
    # a factor with a zero constant keeps the monomial at 0
    system = load_text(
        tmp_path,
        "boltzxml-system 1\nclasses 3\nstart b\n"
        "eq b = 1 1 + 1 0 a:1000000000 c:1\neq a = 2 0\neq c = 1 1\n",
    )
    assert check_well_founded(system) == {"b": 0, "a": 2, "c": 0}


def test_colon_in_class_names_round_trips(systems, tmp_path):
    # seq:1:1 tokens must split on the final colon only
    path = tmp_path / "o.gfs"
    save_system(systems["oneormore"], path)
    assert load_system(path) == systems["oneormore"]
