"""Boltzmann sampling of documents from a solved grammar.

Every pattern node gets a weight, its generating function evaluated at the
oracle's x.  Generation walks the grammar with an explicit stack: a choice
picks a branch with probability proportional to its weight, a group emits
both sides, a repetition draws its count from the geometric law implied by
the child weight (one uniform draw), an element contributes size 1 and
recurses, an attribute contributes size 1.  Conditioned on total size,
every document of that size is equally likely.

Size control is rejection in a window [n(1-eps), n(1+eps)]: a cheap
counting pass draws only structure and aborts as soon as no document can
fit under the upper bound.  Its plan is the replay's event plan with the
draw-free ops removed: choices, repetitions and dead ends keep an op, and
the rest is counted as part of the smallest size of the ops around it.
The counting plan is read off the event plan, so the two walks agree on
which nodes draw by construction.  The weights, the event plan and each
op's smallest size come from one fold over each definition's content
(ast.fold, with an explicit stack), and a definition's smallest size is
its class's least power of x in the system, so no pass recurses along
references or along a pattern's nesting: a grammar with a deep chain of
definitions, or a content model of any width or depth, compiles and
samples.  An attribute's value is drawn by running its content's event
ops with a stack.  The pass tracks the committed size,
the size drawn so far plus the smallest size of every op still pending,
and aborts once that passes the upper bound (the early abort of ceiled
rejection, Duchon, Flajolet, Louchard & Schaeffer 2004, tightened as in
anticipated rejection, Bodini, Lumbroso & Rolin 2015).
A finished pass makes the replay's draws; an aborted one makes a prefix
of the draws of a replay that would pass the bound, so the accepted
documents keep their law.  Aborting on the committed size rather than on
the drawn size leaves the stream at an earlier point after an abort, so
it changed the accepted attempt, and the bytes, of most seeds.  Every
counting op draws one uniform, so each attempt knows how many it drew.
On acceptance the structure stream is re-seeded and skips the rejected
attempts' uniforms, and the accepted attempt is replayed by _walk_write,
which writes the document's UTF-8 bytes while it is generated, with no
event objects in between.  An element whose attributes can follow its
content (a late element, which ast.check_normal_form finds when the
sampler is built) has its start tag held back until it ends, so the
bytes beneath the outermost open late element wait in one buffer; all
others go straight to the sink.  Both walks push a repetition's
copies of its child a chunk at a time, under a frame that pushes the
next chunk when it is popped, so a document's memory follows its depth
times the chunk times a child's ops, plus the largest late subtree, plus
one generator state while counting and two while writing, not its
length.  free_sample counts, rewinds and replays one attempt the same
way, so the counting walk alone decides a size.  sample_in_window and
free_sample write to a buffer and parse the bytes into events
(_parse_events): adjacent texts arrive as one TextContent, an empty
text beside other content is absent, and an element written as <b></b>
keeps one empty TextContent.

Values come from a second random stream so the counting pass stays
aligned with the replay and value samplers never change a shape; it is
built from its seed only for the replay.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from io import BytesIO
from itertools import accumulate
from xml.parsers import expat

from . import ast
from .datatypes import merge_registries
from .errors import (
    CeilingExceededError,
    ExhaustedError,
    MissingDatatypeError,
    SamplingError,
)
from .newton import verify_oracle
from .serialize import (
    XML_DECLARATION,
    EndElement,
    StartElement,
    TextContent,
    _esc_attr,
    _esc_text,
)
from .system import compile_grammar, least_exponents

__all__ = [
    "SizeWindow",
    "SamplerConfig",
    "WindowSample",
    "StreamStats",
    "Sampler",
]

DEFAULT_MAX_ATTEMPTS = 10000
DEFAULT_FREE_CEILING = 10_000_000
_SKIP_CHUNK = 256  # uniforms per getrandbits call of _Stream.rewind, 2 KB
_REP_CHUNK = 64  # copies of a repetition's child pushed at once


@dataclass(frozen=True)
class SizeWindow:
    """Target size n with relative slack eps; bounds are inclusive."""

    n: int
    epsilon: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("target size must be at least 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    @property
    def lower(self):
        # smallest integer inside [n(1-eps), n(1+eps)]; the nudges keep
        # exact products like 1000*0.8 from rounding across a boundary
        return max(1, math.ceil(self.n * (1.0 - self.epsilon) - 1e-9))

    @property
    def upper(self):
        return math.floor(self.n * (1.0 + self.epsilon) + 1e-9)


@dataclass
class SamplerConfig:
    window: SizeWindow
    seed: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    registry: "dict | None" = None  # datatype overrides for this run

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        # random.Random seeds with |seed|, so -k would repeat k's document
        if self.seed < 0:
            raise ValueError("seed must not be negative")


@dataclass
class WindowSample:
    events: list
    size: int
    attempts: int
    draws: int  # uniforms drawn by the counting pass, all attempts
    histogram: Counter = field(repr=False)  # attempts per size, -1 for aborts
    count_seconds: float  # time spent in the counting pass


@dataclass
class StreamStats:
    size: int
    attempts: int
    draws: int  # uniforms drawn by the counting pass, all attempts
    bytes_written: int
    histogram: Counter = field(repr=False)  # attempts per size, -1 for aborts
    count_seconds: float  # time spent in the counting pass
    write_seconds: float  # time spent generating and writing the bytes


# Op codes.  The event plan, run by the replay walk, has one op per node:
# _ELEM, _ATTR, _CHOICE, _SEQ, _TEXT, _LIT, _END and _DEAD, with _LATE_ELEM,
# _LATE_END and _LATE_ATTR in their place for late elements.  A choice,
# (_CHOICE, cps, branches, smallest sizes of the branches), and a
# repetition, (_SEQ, log p, child, smallest size of child), carry what the
# counting plan reads; a literal, (_LIT, escaped bytes, text), its text for
# an attribute's value, whose plan is its content's event ops.  The counting
# plan has only the ops that draw; each op's smallest size is counted when
# it is pushed, and what a draw commits beyond it is added after the draw:
#   (_CHOICE2, p0, excess0, branch0, excess1, branch1)  two live branches
#   (_CHOICE, cps, branches, excesses)                  three or more
#   (_SEQ, log p, child, smallest size of child)
#   (_DEAD,)
# _CHOICE2 decides with one compare, u < p0, where _CHOICE scans its CDF.
# Most choices have two live branches (optional, zeroOrMore, recursion or
# leaf), and the counting walk is mostly choices, so it pays for itself.
# Both walks push at most _REP_CHUNK copies of a repetition's child at a
# time, under one [_REPEAT, copies left, child] frame that pushes the next
# chunk when it is popped; a frame draws nothing.
(
    _ELEM, _ATTR, _CHOICE, _SEQ, _TEXT, _LIT, _END, _DEAD, _CHOICE2,
    _LATE_ELEM, _LATE_END, _LATE_ATTR, _REPEAT,
) = range(13)


def _rev(ops):
    return tuple(reversed(ops))


def _ops(value):
    """The event ops of a node's value from Sampler._node."""
    _, ops, _, live = value
    if live is None:
        return ops
    if not live:
        return ((_DEAD,),)
    if len(live) == 1:
        return live[0][1]
    total = sum(w for w, _, _, _ in live)
    cps = [acc / total for acc in accumulate(w for w, _, _, _ in live)]
    cps[-1] = 1.0
    branches = tuple(_rev(ops) for _, ops, _, _ in live)
    return ((_CHOICE, tuple(cps), branches, tuple(low for _, _, low, _ in live)),)


class Sampler:
    """Prepared sampler for one grammar and its oracle."""

    def __init__(self, grammar, oracle, *, system=None):
        self.late = ast.check_normal_form(grammar)
        self.grammar = grammar
        self.oracle = oracle
        self.system = system if system is not None else compile_grammar(grammar)
        verify_oracle(oracle, self.system)
        self.x = oracle.x
        self.used_types = set()
        self._build_plan()

    # -- plan construction ------------------------------------------------

    def _build_plan(self):
        """Build the event plan, then the smallest sizes and the counting
        plan from it.

        Event ops per definition are (_ELEM, head, children, end, define),
        define being its name; head is the encoded '<tag' with any xmlns,
        end the shared (_END, b'</tag>').  A late definition (see
        check_normal_form) has (_LATE_ELEM, ...) with the end (_LATE_END,
        b'</tag>', head), and its attributes are _LATE_ATTR ops.  The
        definitions' smallest sizes come first, from the system, since a
        reference reads its definition's; then each definition's content
        folds through _node.  Compiling the events decides everything
        about the draws: which branches of a choice are live, when a
        choice of one live branch is no draw at all, when an attribute of
        weight 0 or a repetition of a weightless child is a dead end, and
        each choice's CDF.

        The counting plan is the event plan with the draw-free ops
        removed: a choice, a repetition or a dead end keeps its op, with
        the event op's CDF or log ratio, and everything else is counted up
        front, as part of the smallest size of the ops around it, so an
        element is replaced by its definition's draws and a draw-free
        element has no op at all.  The walk counts an op's smallest size
        when it pushes the op; after its draw, a choice adds its branch's
        excess over the smallest branch and a repetition of reps adds
        (reps - 1) times its child's smallest size, and the walk aborts
        once that committed size passes the ceiling.  The ops run in the
        order of the event ops' draws, so a walk that ends makes the same
        draws; one that aborts stops at the draw that passes the ceiling,
        which changed the accepted attempt of most seeds when it came in."""
        self._event_elem = {}
        g = self.grammar
        for name, body in g.defines.items():
            head = "<" + body.name
            if body.ns:
                head += ' xmlns="%s"' % _esc_attr(body.ns)
            head = head.encode()
            end = ("</%s>" % body.name).encode()
            if name in self.late:
                op = (_LATE_ELEM, head, [], (_LATE_END, end, head))
            else:
                op = (_ELEM, head, [], (_END, end))
            self._event_elem[name] = op + (name,)
        # a definition's smallest size is its class's least power of x; a
        # definition the system dropped has no document
        least = least_exponents(self.system.classes, self.system.equations)
        mins = self._mins = {name: least.get(name, math.inf) for name in g.defines}
        for name, body in g.defines.items():
            visit = partial(self._node, name in self.late)
            self._event_elem[name][2].extend(_rev(_ops(ast.fold(body.content, visit))))
        start = ast.fold(g.start, partial(self._node, False))
        self._event_start = _rev(_ops(start))
        self.min_size = start[2]
        # definitions in increasing order of smallest size: an element
        # outside any choice or repetition is smaller than the definition
        # holding it, so its ops are built before they are read.  A
        # choice's branches and a repetition's child are filled in last,
        # so a recursive definition can refer to its own ops.
        self._count_defs = {}
        todo = []
        for name in sorted(mins, key=mins.get):
            # a definition with no document is a dead end
            self._count_defs[name] = (
                self._count_ops(self._event_elem[name][2], todo)
                if mins[name] < math.inf else ((_DEAD,),)
            )
        self._count_start = tuple(self._count_ops(self._event_start, todo))
        while todo:
            ops, events = todo.pop()
            ops.extend(self._count_ops(events, todo))

    def _node(self, late, p, kids):
        """Visit of the fold that compiles a pattern, late being whether it
        is in a late element's content: returns (weight, event ops, smallest
        size, live).  The weight is its generating function at the oracle's
        x.  live is None but for a choice, where it lists the values of its
        nested branches of positive weight, flattened, and the ops are left
        to _ops, so a chain of choices makes one CDF.  A reference's
        smallest size is its definition's, an attribute's 1 and a dead
        end's infinite; text and values come from the value stream and
        count 0."""
        t = type(p)
        if t is ast.Choice:
            live = []
            for kid in kids:
                if kid[3] is not None:
                    live += kid[3]
                elif kid[0] > 0.0:
                    live.append(kid)
            low = min((kid[2] for kid in kids if kid[0] > 0.0), default=math.inf)
            return kids[0][0] + kids[1][0], None, low, live
        if t is ast.Group:
            left, right = kids
            return left[0] * right[0], _ops(left) + _ops(right), left[2] + right[2], None
        if t is ast.Ref:
            w = self.oracle.values.get(p.name, 0.0)
            return w, (self._event_elem[p.name],), self._mins[p.name], None
        if t is ast.Attribute:
            w = self.x * kids[0][0]
            if w <= 0.0:
                return w, ((_DEAD,),), math.inf, None
            value = _rev(_ops(kids[0]))
            if not late:
                return w, ((_ATTR, p.name, value),), 1, None
            return w, ((_LATE_ATTR, p.name, value, (' %s="' % p.name).encode()),), 1, None
        if t is ast.OneOrMore:
            ratio, _, low, _ = kids[0]
            if ratio >= 1.0:
                raise SamplingError(
                    "repetition weight %.17g is not below 1 at x=%.17g; "
                    "the oracle point is past the singularity" % (ratio, self.x)
                )
            if ratio <= 0.0:
                return 0.0, ((_DEAD,),), math.inf, None
            seq = (_SEQ, math.log(ratio), _rev(_ops(kids[0])), low)
            return ratio / (1.0 - ratio), (seq,), low, None
        if t is ast.Empty:
            return 1.0, (), 0, None
        if t is ast.NotAllowed:
            return 0.0, ((_DEAD,),), math.inf, None
        if t is ast.Value:
            return 1.0, ((_LIT, _esc_text(p.literal).encode(), p.literal),), 0, None
        if t is ast.Text or t is ast.Data:
            dtype = "string" if t is ast.Text else p.type
            self.used_types.add(dtype)
            return 1.0, ((_TEXT, dtype),), 0, None
        raise SamplingError("unexpected pattern %s" % t.__name__)

    def _count_ops(self, ops, todo):
        """The counting ops of a list of event ops, in the same stack
        order.  An element's are its definition's, built before.  A choice
        or a repetition gets empty lists for its branches or child, each
        put on todo with its event ops to be filled in.  Any other op
        makes no draw: its size is in the smallest size of the ops around
        it."""
        out = []
        for op in ops:
            k = op[0]
            if k == _ELEM or k == _LATE_ELEM:
                out += self._count_defs[op[4]]
            elif k == _CHOICE:
                low = min(op[3])
                excess = [m - low for m in op[3]]
                branches = [[] for _ in excess]
                todo += zip(branches, op[2])
                if len(branches) == 2:
                    out.append((
                        _CHOICE2, op[1][0], excess[0], branches[0], excess[1],
                        branches[1],
                    ))
                else:
                    out.append((_CHOICE, op[1], tuple(branches), tuple(excess)))
            elif k == _SEQ:
                child = []
                todo.append((child, op[2]))
                out.append((_SEQ, op[1], child, op[3]))
            elif k == _DEAD:
                out.append(op)
        return out

    def registry_for(self, overrides=None):
        registry = merge_registries(overrides)
        missing = self.used_types - set(registry)
        if missing:
            raise MissingDatatypeError(missing)
        return registry

    # -- walks ------------------------------------------------------------

    def _count_walk(self, rng, ceiling):
        """Structure-only generation pass; returns (size, draws), size -1
        on abort.

        size is the committed size: the size drawn so far plus the
        smallest size of every op still pending.  The walk aborts as soon
        as it passes the ceiling, since no document from there fits.  It
        alone decides a size: a walk that ends makes the writer walk's
        structure draws in the same order, and an aborted one a prefix of
        the draws of a document past the ceiling.  Every op but a
        repetition frame draws one uniform, so draws, the number of
        rng.random() calls the walk made, is the number of ops
        it pushed less those still on the stack, a frame counting as
        pushed only while it is on the stack."""
        size = self.min_size
        if size > ceiling:
            return -1, 0
        stack = list(self._count_start)
        pushed = len(stack)
        rnd = rng.random
        log = math.log
        while stack:
            op = stack.pop()
            k = op[0]
            if k == _CHOICE2:
                if rnd() < op[1]:
                    if op[2]:
                        size += op[2]
                        if size > ceiling:
                            break
                    branch = op[3]
                else:
                    if op[4]:
                        size += op[4]
                        if size > ceiling:
                            break
                    branch = op[5]
                if branch:
                    stack.extend(branch)
                    pushed += len(branch)
            elif k == _SEQ:
                # geometric count from one uniform; 1-u avoids log(0)
                reps = 1 + int(log(1.0 - rnd()) / op[1])
                if reps > 1:
                    size += (reps - 1) * op[3]
                    if size > ceiling:
                        break
                child = op[2]
                if child:
                    if reps > _REP_CHUNK:
                        stack.append([_REPEAT, reps - _REP_CHUNK, child])
                        pushed += 1
                        reps = _REP_CHUNK
                    # a chunk now and the rest from the frame, so the
                    # stack follows the depth, not the number of copies
                    for _ in range(reps):
                        stack.extend(child)
                    pushed += reps * len(child)
            elif k == _CHOICE:
                u = rnd()
                cps = op[1]
                i = 0
                while u >= cps[i]:
                    i += 1
                if op[3][i]:
                    size += op[3][i]
                    if size > ceiling:
                        break
                branch = op[2][i]
                if branch:
                    stack.extend(branch)
                    pushed += len(branch)
            elif k == _REPEAT:
                reps = op[1]
                if reps > _REP_CHUNK:
                    op[1] = reps - _REP_CHUNK
                    stack.append(op)
                    reps = _REP_CHUNK
                else:
                    pushed -= 1  # the frame leaves the stack, undrawn
                child = op[2]
                for _ in range(reps):
                    stack.extend(child)
                pushed += reps * len(child)
            else:
                raise SamplingError("dead branch executed; plan is inconsistent")
        else:
            return size, pushed
        return -1, pushed - len(stack)

    def _accept_attempt(self, rng_s, lower, upper, max_attempts, histogram):
        """Run counting attempts until one lands inside [lower, upper],
        counting each attempt's size, -1 for an abort, in the Counter
        histogram.

        Returns (attempt, size, draws), draws being the uniforms all
        attempts drew; raises ExhaustedError when the budget runs out.
        rng_s must come fresh from _streams: on acceptance it is re-seeded
        and skips the rejected attempts' draws, which leaves it at the
        accepted attempt's first draw for the replay pass with no copy of
        the generator's state kept."""
        walk = self._count_walk
        skipped = 0
        for attempt in range(1, max_attempts + 1):
            size, draws = walk(rng_s, upper)
            histogram[size] += 1
            if lower <= size:
                rng_s.rewind(skipped)
                return attempt, size, skipped + draws
            skipped += draws
        raise ExhaustedError(max_attempts, histogram)

    def _sample_value(self, plan, rng, registry):
        """An attribute's value: plan is its content's event ops in stack
        order, run with a stack, so the draws come in the order of a
        recursive walk over the content."""
        parts = []
        stack = list(plan)
        while stack:
            op = stack.pop()
            k = op[0]
            if k == _TEXT:
                parts.append(registry[op[1]](rng))
            elif k == _LIT:
                parts.append(op[2])
            elif k == _CHOICE:  # the first branch whose CDF passes u
                stack += op[2][bisect_right(op[1], rng.random())]
            else:
                raise SamplingError("unsupported pattern inside attribute")
        return "".join(parts)

    def _walk_write(self, rng_s, rng_v, registry, sink):
        """Replay an attempt that _count_walk finished, from its first
        draw, straight to a binary sink; returns the bytes written.

        tag is the element op whose start tag still lacks its '>'.  The
        bytes follow serialize_stream's rules: '>' before an element's
        first child or text, '/>' when it has neither.

        A late element's start tag is complete only at its end.  From the
        first late element to open until it ends, out is a region buffer
        instead of the sink: late elements write their '>' or '/>',
        content and end tag there like any other, and their attributes go
        to attrs.  When the outermost ends, its head and attributes go to
        the sink, then the region.  A late element opened inside another
        gets a mark, three ints in marks: the region offset of its start
        tag and, once it ends, the tag's span in heads.  While it is open
        those two hold instead the mark of the inner late element around
        it, -1 for none, and where its attributes start in attrs; cur is
        the innermost open one's mark.  out.write is looked up at every
        write because a sink may rebind it."""
        stack = list(self._event_start)
        tag = None
        written = 0
        out = sink
        cur = -1
        region = heads = marks = attrs = None
        rnd = rng_s.random
        log = math.log
        while stack:
            op = stack.pop()
            k = op[0]
            if k == _CHOICE:
                u = rnd()
                cps = op[1]
                i = 0
                while u >= cps[i]:
                    i += 1
                branch = op[2][i]
                if branch:
                    stack.extend(branch)
                continue
            if k == _SEQ:
                reps = 1 + int(log(1.0 - rnd()) / op[1])
                child = op[2]
                if reps > _REP_CHUNK:
                    stack.append([_REPEAT, reps - _REP_CHUNK, child])
                    reps = _REP_CHUNK
                for _ in range(reps):
                    stack.extend(child)
                continue
            if k == _ELEM:
                data = op[1] if tag is None else b">" + op[1]
                tag = op
                stack.append(op[3])
                if op[2]:
                    stack.extend(op[2])
            elif k == _END:
                data = op[1] if tag is None else b"/>"
                tag = None
            elif k == _ATTR:
                value = _esc_attr(self._sample_value(op[2], rng_v, registry))
                data = (' %s="%s"' % (op[1], value)).encode()
            elif k == _TEXT or k == _LIT:
                if k == _LIT:
                    data = op[1]
                else:
                    data = _esc_text(registry[op[1]](rng_v)).encode()
                if tag is not None:
                    data = b">" + data
                    tag = None
            elif k == _LATE_ELEM:
                if tag is not None:
                    out.write(b">")
                    written += 1
                if out is sink:
                    if region is None:
                        region, heads = BytesIO(), BytesIO()
                        marks, attrs = array("q"), bytearray()
                    out = region
                else:
                    marks.extend((out.tell(), cur, len(attrs)))
                    cur = len(marks) - 3
                tag = op
                stack.append(op[3])
                if op[2]:
                    stack.extend(op[2])
                continue
            elif k == _LATE_ATTR:
                value = _esc_attr(self._sample_value(op[2], rng_v, registry))
                attrs += op[3] + value.encode() + b'"'
                continue
            elif k == _LATE_END:
                data = op[1] if tag is None else b"/>"
                tag = None
                out.write(data)
                written += len(data)
                if cur < 0:
                    written += _write_region(
                        sink, op[2] + attrs, region, heads, marks
                    )
                    del attrs[:]
                    out = sink
                    continue
                parent, start = marks[cur + 1], marks[cur + 2]
                marks[cur + 1] = heads.tell()
                heads.write(op[2])
                heads.write(attrs[start:])
                del attrs[start:]
                marks[cur + 2] = heads.tell()
                cur = parent
                continue
            elif k == _REPEAT:
                reps = op[1]
                if reps > _REP_CHUNK:
                    op[1] = reps - _REP_CHUNK
                    stack.append(op)
                    reps = _REP_CHUNK
                child = op[2]
                for _ in range(reps):
                    stack.extend(child)
                continue
            else:
                raise SamplingError("dead branch executed; plan is inconsistent")
            out.write(data)
            written += len(data)
        return written

    # -- public sampling --------------------------------------------------

    def free_sample(self, rng=None, *, ceiling=DEFAULT_FREE_CEILING, registry=None):
        """One unconstrained draw; returns (events, size).

        rng (an int, None or a random.Random, which gives 128 bits) seeds
        both streams as a window sample's seed does.  The size follows the
        Boltzmann law at the oracle's x; a counting walk past the ceiling
        raises CeilingExceededError, and one that ends is replayed."""
        registry = self.registry_for(registry)
        rng_s, seed_v = self._streams(rng)
        size = self._count_walk(rng_s, ceiling)[0]
        if size < 0:
            raise CeilingExceededError(ceiling)
        rng_s.rewind(0)
        buf = BytesIO()
        self._walk_write(rng_s, random.Random(seed_v), registry, buf)
        return _parse_events(buf.getvalue()), size

    def free_size(self, rng, *, ceiling=DEFAULT_FREE_CEILING):
        """Size of one unconstrained draw, -1 if it passed the ceiling."""
        return self._count_walk(rng, ceiling)[0]

    def _streams(self, seed):
        """The structure stream and the value stream's seed, both drawn
        from seed, an int, None or a random.Random.  The value stream is
        built from its seed only for the replay, so the counting pass
        holds one generator state."""
        master = seed if isinstance(seed, random.Random) else random.Random(seed)
        seed_s, seed_v = master.getrandbits(64), master.getrandbits(64)
        del master  # gone before the structure stream's state is made
        return _Stream(seed_s), seed_v

    def check_window(self, window):
        """Raise SamplingError when no document fits the window, that is
        when its upper bound is below the smallest document size."""
        if window.upper < self.min_size:
            raise SamplingError(
                "no document fits the window: its upper bound %d is below "
                "the smallest document size %d" % (window.upper, self.min_size)
            )

    def sample_in_window(self, config):
        """Rejection-sample one document whose size lands in the window.

        Each attempt runs the counting pass only, aborting as soon as the
        document can no longer fit under the upper bound; an accepted
        attempt rewinds the structure stream and replays it through the
        writer walk.  The events are sample_to_sink's bytes, parsed.
        Raises SamplingError if no document fits the window and
        ExhaustedError with the observed size histogram if the budget runs
        out."""
        buf = BytesIO()
        stats = self.sample_to_sink(config, buf)
        return WindowSample(
            _parse_events(buf.getvalue()), stats.size, stats.attempts,
            stats.draws, stats.histogram, stats.count_seconds,
        )

    def sample_to_sink(self, config, sink, *, xml_declaration=False):
        """Like sample_in_window but writing UTF-8 bytes to a binary sink.

        The bytes go out while the document is generated.  Only the
        subtree of an open late element waits, since its start tag is
        complete only at its end, and a repetition's copies are pushed
        _REP_CHUNK at a time, so memory follows the document's depth
        times the chunk times a child's ops, plus the largest late
        subtree and one or two generator states, not the document's
        length."""
        registry = self.registry_for(config.registry)
        window = config.window
        self.check_window(window)
        rng_s, seed_v = self._streams(config.seed)
        histogram = Counter()
        started = time.perf_counter()
        attempt, size, draws = self._accept_attempt(
            rng_s, window.lower, window.upper, config.max_attempts, histogram
        )
        counted = time.perf_counter()
        rng_v = random.Random(seed_v)
        del seed_v  # not held across the writer walk
        written = 0
        if xml_declaration:
            sink.write(XML_DECLARATION)
            written = len(XML_DECLARATION)
        written += self._walk_write(rng_s, rng_v, registry, sink)
        return StreamStats(
            size, attempt, draws, written, histogram,
            counted - started, time.perf_counter() - counted,
        )


class _Stream(random.Random):
    """The structure stream: a generator that can go back to its seed and
    skip forward, so an accepted attempt is found again without a copy of
    the generator's state, which as a tuple takes 24 KB.  random() takes
    two 32-bit words and getrandbits(64 k) exactly 2 k, so k uniforms are
    skipped by getrandbits, in calls of at most _SKIP_CHUNK uniforms so
    that none holds more than a few KB."""

    def __init__(self, seed):
        self.origin = seed
        super().__init__(seed)

    def rewind(self, draws):
        """Re-seed, then skip the first draws uniforms."""
        self.seed(self.origin)
        while draws > 0:
            self.getrandbits(64 * min(draws, _SKIP_CHUNK))
            draws -= _SKIP_CHUNK


def _write_region(sink, tag, region, heads, marks):
    """Write the outermost late element's start tag, then its region with
    each inner late element's tag put back at its offset, and empty the
    buffers for the next region.  Returns the tags' length.  The marks are
    in opening order, and a '>' or an end tag always lies between two
    tags, so their offsets rise."""
    sink.write(tag)
    written = len(tag)
    body = region.getvalue()
    if marks:
        tags = heads.getvalue()
        written += len(tags)
        pos = 0
        for i in range(0, len(marks), 3):
            at = marks[i]
            sink.write(body[pos:at])
            sink.write(tags[marks[i + 1]:marks[i + 2]])
            pos = at
        body = body[pos:]
        heads.seek(0)
        heads.truncate()
        del marks[:]
    sink.write(body)
    region.seek(0)
    region.truncate()
    return written


def _parse_events(data):
    """Parse _walk_write's bytes into events, raising SamplingError if
    they do not parse.  A leading xmlns becomes the start event's ns, and
    <b></b> gets one TextContent(""), so serialize_stream gives the bytes
    back."""
    events = []
    append = events.append
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True

    def start(name, attrs):
        ns = None
        if attrs and attrs[0] == "xmlns":
            ns = attrs[1]
            del attrs[:2]
        append(StartElement(name, tuple(zip(attrs[::2], attrs[1::2])), ns))

    def end(name):
        if type(events[-1]) is StartElement:
            # expat reports the end of <b/> just past its '/>'
            at = parser.CurrentByteIndex
            if data[at - 2:at] != b"/>":
                append(TextContent(""))
        append(EndElement(name))

    def text(chunk):
        if type(events[-1]) is TextContent:
            chunk = events.pop().text + chunk
        append(TextContent(chunk))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise SamplingError("sampled document does not parse: %s" % exc) from None
    return events
