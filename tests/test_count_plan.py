"""The fused counting plan against the event plan.

_count_walk runs fused ops (a run of draw-free sizes in one add, an
element's leading draw-free content in its own add, a branch's leading
draw-free content in its choice, an element whose first draw is a choice
in one op), so it pops far fewer ops than _walk_buffered.  It must still return the size _walk_buffered reaches, -1
exactly where _walk_buffered raises CeilingExceededError, and leave the
structure stream in the same state: the same draws in the same order, and
an abort before the same draw."""

import random
from pathlib import Path

import pytest

from boltzxml import (
    CeilingExceededError,
    Sampler,
    bundled_grammar_path,
    compile_grammar,
    list_bundled_grammars,
    parse_grammar,
    parse_grammar_file,
    solve,
)
from boltzxml.sampler import _ADD, _ADD_CHOICE, _CHOICE

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'
DATA = Path(__file__).parent / "data"
SEEDS = 300
CEILINGS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200)

LEAF = '<define name="leaf"><element name="leaf"><text/></element></define>'

# one grammar per fused form, each with the x it is sampled at
INLINE = {
    # a leaf with attributes, repeated: constant runs inside a repetition
    "leaf-attributes": (
        '<start><ref name="r"/></start>'
        '<define name="r"><element name="r"><zeroOrMore>'
        '<ref name="cell"/></zeroOrMore></element></define>'
        '<define name="cell"><element name="cell">'
        '<attribute name="a"><text/></attribute>'
        '<attribute name="b"><data type="integer"/></attribute>'
        "</element></define>",
        0.3,
    ),
    # a choice after the first one, whose branch adds 1 after its draw;
    # it is the last op of a walk, so no later add checks for it
    "choice-lead": (
        '<start><ref name="n"/></start>'
        '<define name="n"><element name="n">'
        "<choice><empty/><group><ref name=\"n\"/><ref name=\"n\"/></group>"
        '</choice><optional><attribute name="k"><text/></attribute>'
        "</optional></element></define>",
        "auto",
    ),
    # an element whose only content, after an attribute, is a choice
    "element-choice": (
        '<start><ref name="n"/></start>'
        '<define name="n"><element name="n">'
        '<attribute name="id"><text/></attribute>'
        "<choice><empty/><group><ref name=\"n\"/><ref name=\"n\"/></group>"
        "</choice></element></define>",
        "auto",
    ),
    # draw-free siblings after a choice: a trailing constant run
    "siblings-after-choice": (
        '<start><ref name="n"/></start>'
        '<define name="n"><element name="n">'
        "<choice><empty/><group><ref name=\"n\"/><ref name=\"n\"/></group>"
        '</choice><ref name="leaf"/><attribute name="k"><text/></attribute>'
        '<ref name="leaf"/></element></define>' + LEAF,
        "auto",
    ),
    # oneOrMore over a draw-free element
    "repeat-fixed": (
        '<start><ref name="r"/></start>'
        '<define name="r"><element name="r"><ref name="leaf"/>'
        "<oneOrMore><ref name=\"pair\"/></oneOrMore></element></define>"
        '<define name="pair"><element name="pair"><ref name="leaf"/>'
        '<ref name="leaf"/></element></define>' + LEAF,
        0.6,
    ),
    # a notAllowed branch next to live ones
    "not-allowed-branch": (
        '<start><ref name="n"/></start>'
        '<define name="n"><element name="n"><choice><notAllowed/>'
        "<choice><ref name=\"leaf\"/><group><ref name=\"n\"/><ref name=\"n\"/>"
        "</group></choice></choice></element></define>" + LEAF,
        "auto",
    ),
}


def _grammar(name):
    if name in INLINE:
        body, x = INLINE[name]
        return parse_grammar("<grammar %s>%s</grammar>" % (RNG, body)), x
    if name == "schema-4-16-8":
        return parse_grammar_file(DATA / "schema-4-16-8.rng"), "auto"
    x = 0.55 if name == "feed" else "auto"
    return parse_grammar_file(bundled_grammar_path(name)), x


NAMES = sorted(list_bundled_grammars()) + ["schema-4-16-8"] + sorted(INLINE)


def _sampler(name):
    grammar, x = _grammar(name)
    system = compile_grammar(grammar)
    return Sampler(grammar, solve(system, x), system=system)


def _replay_size(sampler, rng, ceiling, registry):
    try:
        return sampler._walk_buffered(rng, random.Random(0), ceiling, registry)[1]
    except CeilingExceededError:
        return -1


@pytest.mark.parametrize("name", NAMES)
def test_counting_plan_matches_event_plan(name):
    sampler = _sampler(name)
    registry = sampler.registry_for()
    mismatches = []
    sizes = set()
    for seed in range(SEEDS):
        for ceiling in CEILINGS:
            rng_c = random.Random(seed)
            rng_e = random.Random(seed)
            counted = sampler._count_walk(rng_c, ceiling)
            replayed = _replay_size(sampler, rng_e, ceiling, registry)
            sizes.add(counted)
            if counted != replayed or rng_c.getstate() != rng_e.getstate():
                mismatches.append((seed, ceiling, counted, replayed))
    assert not mismatches, mismatches[:5]
    # both outcomes occur, so aborts and completed walks are both compared
    assert -1 in sizes and len(sizes) > 2


def test_fused_forms_are_built():
    # ternary's element is one op: add 1, check, choose the children
    ternary = _sampler("ternary")
    assert ternary._count_elem["t"][:2] == (_ADD_CHOICE, 1)
    feed = _sampler("feed")
    # channel's title, link and description join its own add, before
    # the choice of its items; a draw-free element gets no op of its own
    assert feed._count_elem["channel"][:2] == (_ADD_CHOICE, 4)
    assert "title" not in feed._count_elem
    # an item adds itself and its title, then chooses a link; either
    # branch goes on with the pubDate choice, which adds 1 for the
    # pubDate branch itself (stacks run from their last op)
    kind, k, _, branches = feed._count_elem["item"]
    assert (kind, k) == (_ADD_CHOICE, 2)
    assert [[op[0] for op in b] for b in branches] == [[_CHOICE], [_CHOICE, _ADD]]
    assert branches[0][0][3] == (0, 1)
