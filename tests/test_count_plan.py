"""The counting plan against the event plan.

_count_walk runs a plan of draws only: a choice, a repetition or a dead
end.  Draw-free content (attributes, and elements with no choice or
repetition below them) has no op; its size is counted up front, as part
of the smallest size of the pattern around it.  The walk tracks its
committed size, the size drawn so far plus the smallest size of every op
still pending, and aborts once that passes the ceiling.  It is the only
code that decides a document's size: the writer walk _walk_write replays
a finished walk's draws and counts nothing.  So the walk must return the
size the event plan's draws give and leave the structure stream in the
same state when it ends, and -1 exactly where a replay capped at the
ceiling passes it, after a prefix of that replay's draws.  The replay
here is reference_walk.reference_events, which runs the event plan into
events and aborts on the size drawn, so it may draw on past the walk's
abort.  The walk also returns the number of uniforms it drew, which the
sampler skips to find an accepted attempt again.  sample_to_sink's bytes
go to a sink that keeps nothing."""

import math
import random
from pathlib import Path

import pytest

from boltzxml import (
    CeilingExceededError,
    Sampler,
    SamplerConfig,
    SizeWindow,
    bundled_grammar_path,
    compile_grammar,
    list_bundled_grammars,
    parse_grammar,
    parse_grammar_file,
    solve,
)
from boltzxml.sampler import _CHOICE, _CHOICE2, _REP_CHUNK, _SEQ, _Stream

from reference_walk import reference_events

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'
DATA = Path(__file__).parent / "data"
SEEDS = 300
CEILINGS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200)

LEAF = '<define name="leaf"><element name="leaf"><text/></element></define>'

# one grammar per plan form, each with the x it is sampled at
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
    # a choice of three live branches, which keeps the CDF scan
    "three-way": (
        '<start><ref name="n"/></start>'
        '<define name="n"><element name="n"><choice><empty/>'
        '<ref name="n"/><group><ref name="n"/><ref name="n"/>'
        "</group></choice></element></define>",
        "auto",
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


SCHEMAS = sorted(path.stem for path in DATA.glob("schema-*.rng"))


def _grammar(name):
    if name in INLINE:
        body, x = INLINE[name]
        return parse_grammar("<grammar %s>%s</grammar>" % (RNG, body)), x
    if name in SCHEMAS:
        return parse_grammar_file(DATA / (name + ".rng")), "auto"
    x = 0.55 if name == "feed" else "auto"
    return parse_grammar_file(bundled_grammar_path(name)), x


NAMES = sorted(list_bundled_grammars()) + ["schema-4-16-8"] + sorted(INLINE)


def _sampler(name):
    grammar, x = _grammar(name)
    system = compile_grammar(grammar)
    return Sampler(grammar, solve(system, x), system=system)


class CountingRandom(random.Random):
    """A generator that counts its structure draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class DiscardSink:
    write = len


def _replay_size(sampler, rng, ceiling, registry):
    try:
        return reference_events(sampler, rng, random.Random(0), ceiling, registry)[1]
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
            rng_c = CountingRandom(seed)
            rng_e = CountingRandom(seed)
            counted, draws = sampler._count_walk(rng_c, ceiling)
            replayed = _replay_size(sampler, rng_e, ceiling, registry)
            sizes.add(counted)
            if counted != replayed or draws != rng_c.draws:
                same = False
            elif counted >= 0:
                # a finished walk: the same draws, to the generator state
                same = rng_c.getstate() == rng_e.getstate()
            else:
                # both streams come from one seed, so an aborted walk's
                # draws are a prefix of the replay's when it made no more;
                # the replay aborts on the size drawn, not the committed
                # size, so it may draw on past the walk's abort
                same = draws <= rng_e.draws
            if not same:
                mismatches.append((seed, ceiling, counted, replayed))
    assert not mismatches, mismatches[:5]
    # both outcomes occur, so aborts and completed walks are both compared
    assert -1 in sizes and len(sizes) > 2


def test_repetition_past_the_ceiling_aborts_after_its_draw():
    feed = _sampler("feed")
    registry = feed.registry_for()
    # rss, its version, channel and channel's title, link and description
    assert feed.min_size == 6
    # the walk's one op is the choice of channel's zeroOrMore items
    (choice,) = feed._count_start
    assert choice[0] == _CHOICE2
    (repeat,) = choice[3] or choice[5]
    assert repeat[0] == _SEQ and repeat[3] == 2  # an item and its title
    ceiling = 12
    early = 0
    for seed in range(SEEDS):
        probe = random.Random(seed)
        if (probe.random() < choice[1]) != (choice[3] == [repeat]):
            continue  # no items
        reps = 1 + int(math.log(1.0 - probe.random()) / repeat[1])
        if feed.min_size + 2 * reps <= ceiling:
            continue
        rng_c = CountingRandom(seed)
        rng_e = CountingRandom(seed)
        assert feed._count_walk(rng_c, ceiling) == (-1, 2)
        assert rng_c.draws == 2
        assert _replay_size(feed, rng_e, ceiling, registry) == -1
        if feed.min_size + reps <= ceiling:
            # the replay counts one per item here, so it draws on
            assert rng_e.draws > 2
            early += 1
    assert early > 40


def test_a_repetition_past_one_chunk_aborts_inside_a_later_one():
    # feed nearer its pole, where items often outnumber two chunks.  Each
    # item draws its optional link and pubDate, each committing 1 more
    # when present, so a ceiling can fall in any chunk.  The event plan's
    # draws are modelled from the same seed: the items' choice, their
    # count, then two per item in order.
    grammar = parse_grammar_file(bundled_grammar_path("feed"))
    system = compile_grammar(grammar)
    feed = Sampler(grammar, solve(system, 0.615), system=system)
    registry = feed.registry_for()
    (choice,) = feed._count_start
    (repeat,) = choice[3] or choice[5]
    item = repeat[2][::-1]  # run order: stacks run from their last op
    later = framed = 0
    for seed in range(SEEDS):
        probe = random.Random(seed)
        if (probe.random() < choice[1]) != (choice[3] == [repeat]):
            continue  # no items
        reps = 1 + int(math.log(1.0 - probe.random()) / repeat[1])
        if reps <= 2 * _REP_CHUNK:
            continue
        size, draws = feed.min_size + 2 * reps, 2
        steps = []  # (item, committed size, draws) where the size rose
        for i in range(reps):
            for op in item:
                draws += 1
                excess = op[2] if probe.random() < op[1] else op[4]
                if excess:
                    size += excess
                    steps.append((i, size, draws))
        # the whole walk, through every frame, then aborts at the first
        # rise in the second chunk, the third, and the last item
        rng_c = CountingRandom(seed)
        rng_e = CountingRandom(seed)
        assert feed._count_walk(rng_c, size) == (size, draws) == (size, rng_c.draws)
        assert _replay_size(feed, rng_e, size, registry) == size
        assert rng_e.getstate() == rng_c.getstate()
        for first in (_REP_CHUNK, 2 * _REP_CHUNK, reps - 1):
            step = next((s for s in steps if s[0] >= first), None)
            if step is None:
                continue  # no rise from there on
            i, committed, drawn = step
            rng_c = CountingRandom(seed)
            rng_e = CountingRandom(seed)
            assert feed._count_walk(rng_c, committed - 1) == (-1, drawn)
            assert rng_c.draws == drawn
            # the replay aborts on the size drawn, later than the walk
            assert _replay_size(feed, rng_e, committed - 1, registry) == -1
            assert rng_e.draws >= drawn
            later += 1
            # copies of the child not yet pushed: a frame is on the stack
            framed += i // _REP_CHUNK < (reps - 1) // _REP_CHUNK
    assert later > 60 and framed > 30, (later, framed)


def test_fused_forms_are_built():
    # a reference is fused into its definition's draws.  ternary: one
    # two-way choice; its second branch is three references to t, each
    # replaced by t's own ops, so by this very op
    ternary = _sampler("ternary")
    assert ternary.min_size == 1
    (op,) = ternary._count_start
    kind, p0, excess0, branch0, excess1, branch1 = op
    assert kind == _CHOICE2 and 0.0 < p0 < 1.0
    assert (excess0, branch0, excess1) == (0, [], 3)
    assert len(branch1) == 3 and all(b is op for b in branch1)
    # feed: an item's title has no op; the item draws its optional link,
    # then its optional pubDate, each committing 1 more when present
    # (stacks run from their last op)
    feed = _sampler("feed")
    (choice,) = feed._count_start
    (repeat,) = choice[3] or choice[5]
    item = repeat[2]
    assert [op[0] for op in item] == [_CHOICE2, _CHOICE2]
    assert all(sorted((op[2], op[4])) == [0, 1] for op in item)
    assert all(not op[3] and not op[5] for op in item)
    # three live branches keep the CDF scan, with each branch's excess
    # over the smallest; a notAllowed branch is never drawn, so no op
    (three,) = _sampler("three-way")._count_start
    assert three[0] == _CHOICE and three[3] == (0, 1, 2)
    assert len(three[1]) == len(three[2]) == 3
    (two,) = _sampler("not-allowed-branch")._count_start
    assert two[0] == _CHOICE2


@pytest.mark.parametrize("name", sorted(list_bundled_grammars()) + SCHEMAS)
def test_draws_skip_the_walk(name):
    # the sampler finds an accepted attempt again by re-seeding the
    # structure stream and skipping the draws of the attempts before it
    sampler = _sampler(name)
    sizes = set()
    for ceiling in (3, 10**4):
        rng = random.Random(ceiling)
        twin = random.Random(ceiling)
        for _ in range(400):
            size, draws = sampler._count_walk(rng, ceiling)
            sizes.add(size)
            if draws:
                twin.getrandbits(64 * draws)
            assert twin.getstate() == rng.getstate(), (ceiling, size, draws)
    assert -1 in sizes and len(sizes) > 1


@pytest.mark.parametrize("draws", [0, 1, 2, 3, 255, 256, 257, 1000])
def test_getrandbits_skips_uniforms(draws):
    # random() takes two 32-bit words of the generator and
    # getrandbits(64 k) exactly 2 k, on every supported Python
    for seed in (0, 2**64 - 1):
        drawn, skipped = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            drawn.random()
        skipped.getrandbits(64 * draws)
        assert skipped.getstate() == drawn.getstate()
        # _Stream.rewind skips in calls of at most a few KB
        stream = _Stream(seed)
        stream.random()
        stream.rewind(draws)
        assert stream.getstate() == drawn.getstate()
        assert skipped.random() == stream.random() == drawn.random()


@pytest.mark.parametrize("name", ["ternary", "feed", "schema-4-16-8"])
def test_stats_count_the_draws_of_every_attempt(name):
    sampler = _sampler(name)
    window = SizeWindow(40, 0.2)
    for seed in range(20):
        config = SamplerConfig(window=window, seed=seed)
        stats = sampler.sample_to_sink(config, DiscardSink())
        # the structure stream as _streams seeds it, counting its draws
        master = random.Random(seed)
        rng = CountingRandom(master.getrandbits(64))
        for _ in range(stats.attempts):
            sampler._count_walk(rng, window.upper)
        assert stats.draws == rng.draws > 0
        assert sampler.sample_in_window(config).draws == stats.draws
