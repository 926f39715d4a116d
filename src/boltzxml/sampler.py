"""Boltzmann sampling of documents from a solved grammar.

Every pattern node gets a weight, its generating function evaluated at the
oracle's x.  Generation walks the grammar with an explicit stack: a choice
picks a branch with probability proportional to its weight, a group emits
both sides, a repetition draws its count from the geometric law implied by
the child weight (one uniform draw), an element contributes size 1 and
recurses, an attribute contributes size 1.  Conditioned on total size,
every document of that size is equally likely.

Size control is rejection in a window [n(1-eps), n(1+eps)]: a cheap
counting pass draws only structure and aborts early past the upper bound;
on acceptance the structure stream is rewound to a checkpoint and the
accepted attempt is replayed by one of two walks that make the same draws:

- _walk_write writes the document's UTF-8 bytes to a sink while it is
  generated, with no event objects in between.  sample_to_sink uses it
  when no attribute can follow content inside an element, so every start
  tag is complete before its element's first child.
- _walk_buffered builds the StartElement / TextContent / EndElement list.
  It serves sample_in_window and free_sample, and sample_to_sink (through
  serialize_stream) for grammars with late attributes.

Values come from a second random stream so the counting pass stays
aligned with the replay.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

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
    serialize_stream,
)
from .system import compile_grammar

__all__ = [
    "SizeWindow",
    "SamplerConfig",
    "WindowSample",
    "StreamStats",
    "Sampler",
]

DEFAULT_MAX_ATTEMPTS = 10000
DEFAULT_FREE_CEILING = 10_000_000


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


@dataclass
class WindowSample:
    events: list
    size: int
    attempts: int
    sizes: list = field(repr=False)  # per-attempt sizes, -1 for early aborts


@dataclass
class StreamStats:
    size: int
    attempts: int
    bytes_written: int
    sizes: list = field(repr=False)


# op codes shared by the counting plan and the event plan
_ELEM, _ATTR, _CHOICE, _SEQ, _TEXT, _LIT, _END, _DEAD = range(8)


def _rev(ops):
    return tuple(reversed(ops))


def _choice_cdf(live):
    """Cumulative branch probabilities of (weight, branch) pairs."""
    total = sum(w for w, _ in live)
    acc, cps = 0.0, []
    for w, _ in live:
        acc += w
        cps.append(acc / total)
    cps[-1] = 1.0
    return tuple(cps)


class Sampler:
    """Prepared sampler for one grammar and its oracle."""

    def __init__(self, grammar, oracle, *, system=None):
        self.grammar = grammar
        self.oracle = oracle
        self.system = system if system is not None else compile_grammar(grammar)
        verify_oracle(oracle, self.system)
        self.x = oracle.x
        self.used_types = set()
        self._weight_memo = {}
        self._build_plan()

    # -- weights ----------------------------------------------------------

    def weight(self, pattern):
        """Generating function of a pattern at the oracle's x."""
        key = id(pattern)
        hit = self._weight_memo.get(key)
        if hit is not None:
            return hit
        p = pattern
        if isinstance(p, (ast.Empty, ast.Text, ast.Data, ast.Value)):
            w = 1.0
        elif isinstance(p, ast.NotAllowed):
            w = 0.0
        elif isinstance(p, ast.Ref):
            w = self.oracle.values.get(p.name, 0.0)
        elif isinstance(p, ast.Attribute):
            w = self.x * self.weight(p.content)
        elif isinstance(p, ast.Choice):
            w = self.weight(p.left) + self.weight(p.right)
        elif isinstance(p, ast.Group):
            w = self.weight(p.left) * self.weight(p.right)
        elif isinstance(p, ast.OneOrMore):
            ratio = self.weight(p.child)
            if ratio >= 1.0:
                raise SamplingError(
                    "repetition weight %.17g is not below 1 at x=%.17g; "
                    "the oracle point is past the singularity" % (ratio, self.x)
                )
            w = ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
        else:
            raise SamplingError("unexpected pattern %s" % type(p).__name__)
        self._weight_memo[key] = w
        return w

    # -- plan construction ------------------------------------------------

    def _build_plan(self):
        """Counting ops (_ELEM, name, children) and event ops
        (_ELEM, head, children, end, name, ns) per definition; head is the
        encoded '<name' with any xmlns, end the shared (_END, b'</name>')."""
        self._count_elem = {}
        self._event_elem = {}
        g = self.grammar
        for name, body in g.defines.items():
            head = "<" + body.name
            if body.ns:
                head += ' xmlns="%s"' % _esc_attr(body.ns)
            end = (_END, ("</%s>" % body.name).encode())
            self._count_elem[name] = (_ELEM, body.name, [])
            self._event_elem[name] = (
                _ELEM, head.encode(), [], end, body.name, body.ns
            )
        for name, body in g.defines.items():
            c_ops, e_ops = self._compile_pair(body.content)
            self._count_elem[name][2].extend(_rev(c_ops))
            self._event_elem[name][2].extend(_rev(e_ops))
        c_start, e_start = self._compile_pair(g.start)
        self._count_start = _rev(c_start)
        self._event_start = _rev(e_start)
        self.buffered = any(
            self._scan_late(body.content)[2] for body in g.defines.values()
        )

    def _scan_late(self, p):
        """(has attributes, can emit content, attribute after content)."""
        if isinstance(p, (ast.Text, ast.Data, ast.Value)):
            return (False, True, False)
        if isinstance(p, (ast.Empty, ast.NotAllowed)):
            return (False, False, False)
        if isinstance(p, ast.Attribute):
            return (True, False, False)
        if isinstance(p, (ast.Ref, ast.Element)):
            return (False, True, False)
        if isinstance(p, ast.Choice):
            la = self._scan_late(p.left)
            ra = self._scan_late(p.right)
            return (la[0] or ra[0], la[1] or ra[1], la[2] or ra[2])
        if isinstance(p, ast.Group):
            la = self._scan_late(p.left)
            ra = self._scan_late(p.right)
            return (
                la[0] or ra[0],
                la[1] or ra[1],
                la[2] or ra[2] or (la[1] and ra[0]),
            )
        if isinstance(p, ast.OneOrMore):
            ca = self._scan_late(p.child)
            return (ca[0], ca[1], ca[2] or (ca[0] and ca[1]))
        raise SamplingError("unexpected pattern %s" % type(p).__name__)

    def _flatten_choice(self, p, out):
        if isinstance(p, ast.Choice):
            self._flatten_choice(p.left, out)
            self._flatten_choice(p.right, out)
        else:
            out.append((self.weight(p), p))

    def _live_branches(self, p):
        """(weight, branch) pairs of a choice with positive weight."""
        branches = []
        self._flatten_choice(p, branches)
        return [(w, b) for w, b in branches if w > 0.0]

    def _compile_pair(self, p):
        """Compile a pattern into (counting ops, event ops), execution order."""
        if isinstance(p, ast.Empty):
            return (), ()
        if isinstance(p, ast.NotAllowed):
            return ((_DEAD,),), ((_DEAD,),)
        if isinstance(p, ast.Text):
            self.used_types.add("string")
            return (), ((_TEXT, "string"),)
        if isinstance(p, ast.Data):
            self.used_types.add(p.type)
            return (), ((_TEXT, p.type),)
        if isinstance(p, ast.Value):
            return (), ((_LIT, p.literal, _esc_text(p.literal).encode()),)
        if isinstance(p, ast.Attribute):
            vplan = self._compile_value(p.content)
            return ((_ATTR,),), ((_ATTR, p.name, vplan),)
        if isinstance(p, ast.Ref):
            return (self._count_elem[p.name],), (self._event_elem[p.name],)
        if isinstance(p, ast.Group):
            lc, le = self._compile_pair(p.left)
            rc, re_ = self._compile_pair(p.right)
            return lc + rc, le + re_
        if isinstance(p, ast.OneOrMore):
            ratio = self.weight(p.child)
            if ratio <= 0.0:
                return ((_DEAD,),), ((_DEAD,),)
            cc, ce = self._compile_pair(p.child)
            logp = math.log(ratio)
            return ((_SEQ, logp, _rev(cc)),), ((_SEQ, logp, _rev(ce)),)
        if isinstance(p, ast.Choice):
            live = self._live_branches(p)
            if not live:
                return ((_DEAD,),), ((_DEAD,),)
            if len(live) == 1:
                return self._compile_pair(live[0][1])
            cps = _choice_cdf(live)
            pairs = [self._compile_pair(b) for _, b in live]
            c_branches = tuple(_rev(c) for c, _ in pairs)
            e_branches = tuple(_rev(e) for _, e in pairs)
            return ((_CHOICE, cps, c_branches),), ((_CHOICE, cps, e_branches),)
        raise SamplingError("unexpected pattern %s" % type(p).__name__)

    def _compile_value(self, p):
        if isinstance(p, ast.Text):
            self.used_types.add("string")
            return ("fn", "string")
        if isinstance(p, ast.Data):
            self.used_types.add(p.type)
            return ("fn", p.type)
        if isinstance(p, ast.Value):
            return ("lit", p.literal)
        if isinstance(p, ast.Empty):
            return ("lit", "")
        if isinstance(p, ast.Group):
            return ("cat", self._compile_value(p.left), self._compile_value(p.right))
        if isinstance(p, ast.Choice):
            live = self._live_branches(p)
            if not live:
                return ("dead",)
            if len(live) == 1:
                return self._compile_value(live[0][1])
            return ("alt", _choice_cdf(live), tuple(self._compile_value(b) for _, b in live))
        raise SamplingError(
            "unsupported pattern inside attribute: %s" % type(p).__name__
        )

    def registry_for(self, overrides=None):
        registry = merge_registries(overrides)
        missing = self.used_types - set(registry)
        if missing:
            raise MissingDatatypeError(missing)
        return registry

    # -- walks ------------------------------------------------------------

    def _count_walk(self, rng, ceiling):
        """Structure-only generation pass; returns size or -1 on abort."""
        stack = list(self._count_start)
        size = 0
        rnd = rng.random
        log = math.log
        while stack:
            op = stack.pop()
            k = op[0]
            if k == _ELEM:
                size += 1
                if size > ceiling:
                    return -1
                if op[2]:
                    stack.extend(op[2])
            elif k == _CHOICE:
                u = rnd()
                cps = op[1]
                i = 0
                while u >= cps[i]:
                    i += 1
                branch = op[2][i]
                if branch:
                    stack.extend(branch)
            elif k == _SEQ:
                # geometric count from one uniform; 1-u avoids log(0)
                reps = 1 + int(log(1.0 - rnd()) / op[1])
                if size + reps > ceiling:
                    return -1
                child = op[2]
                for _ in range(reps):
                    stack.extend(child)
            elif k == _ATTR:
                size += 1
                if size > ceiling:
                    return -1
            else:
                raise SamplingError("dead branch executed; plan is inconsistent")
        return size

    _CHECKPOINT_EVERY = 32

    def _accept_attempt(self, rng_s, lower, upper, max_attempts, sizes):
        """Run counting attempts until one lands inside [lower, upper].

        Returns (attempt, size) with the structure stream rewound to the
        accepted attempt's first draw, ready for the replay pass; raises
        ExhaustedError when the budget runs out.  The stream is
        checkpointed every few attempts and after every walk aborted past
        the upper bound, rather than before each attempt, so an acceptance
        rewinds to the last checkpoint and re-runs only the short walks
        that finished below the window since then."""
        note = sizes.append
        walk = self._count_walk
        getstate = rng_s.getstate
        span = self._CHECKPOINT_EVERY
        state = getstate()
        anchor = 1
        size = 0
        for attempt in range(1, max_attempts + 1):
            if size < 0 or attempt - anchor == span:
                state = None  # a state is 24 KB; drop the old one first
                state = getstate()
                anchor = attempt
            size = walk(rng_s, upper)
            note(size)
            if lower <= size:
                rng_s.setstate(state)
                for _ in range(anchor, attempt):
                    walk(rng_s, upper)
                return attempt, size
        raise ExhaustedError(max_attempts, Counter(sizes))

    def _sample_value(self, plan, rng, registry):
        tag = plan[0]
        if tag == "lit":
            return plan[1]
        if tag == "fn":
            return registry[plan[1]](rng)
        if tag == "cat":
            return self._sample_value(plan[1], rng, registry) + self._sample_value(
                plan[2], rng, registry
            )
        if tag == "alt":
            u = rng.random()
            cps = plan[1]
            i = 0
            while u >= cps[i]:
                i += 1
            return self._sample_value(plan[2][i], rng, registry)
        raise SamplingError("dead value branch executed")

    def _walk_write(self, rng_s, rng_v, ceiling, registry, sink):
        """Generate a document straight to a binary sink; needs no late
        attributes.  Returns the number of bytes written.

        tag is the element op whose start tag still lacks its '>', names
        the attribute names written into that tag.  The bytes equal
        serialize_stream's over _walk_buffered's events: '>' before an
        element's first child or text, '/>' when it has neither.  sink.write
        is looked up at every write because a sink may rebind it."""
        stack = list(self._event_start)
        tag = names = None
        size = written = 0
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
                if size + reps > ceiling:
                    raise CeilingExceededError(ceiling)
                child = op[2]
                for _ in range(reps):
                    stack.extend(child)
                continue
            if k == _ELEM:
                size += 1
                if size > ceiling:
                    raise CeilingExceededError(ceiling)
                data = op[1] if tag is None else b">" + op[1]
                tag, names = op, None
                stack.append(op[3])
                if op[2]:
                    stack.extend(op[2])
            elif k == _END:
                data = op[1] if tag is None else b"/>"
                tag = None
            elif k == _ATTR:
                size += 1
                if size > ceiling:
                    raise CeilingExceededError(ceiling)
                name = op[1]
                if names is None:
                    names = [name]
                elif name in names:
                    raise SamplingError(
                        "duplicate attribute %r on element %r" % (name, tag[4])
                    )
                else:
                    names.append(name)
                value = _esc_attr(self._sample_value(op[2], rng_v, registry))
                data = (' %s="%s"' % (name, value)).encode()
            elif k == _TEXT or k == _LIT:
                if k == _LIT:
                    data = op[2]
                else:
                    data = _esc_text(registry[op[1]](rng_v)).encode()
                if tag is not None:
                    data = b">" + data
                    tag = None
            else:
                raise SamplingError("dead branch executed; plan is inconsistent")
            sink.write(data)
            written += len(data)
        return written

    def _walk_buffered(self, rng_s, rng_v, ceiling, registry):
        """Full-document generation allowing attributes after content."""
        stack = list(self._event_start)
        out = []
        open_stack = []  # (slot in out, name, attrs, ns)
        size = 0
        rnd = rng_s.random
        log = math.log
        while stack:
            op = stack.pop()
            k = op[0]
            if k == _ELEM:
                size += 1
                if size > ceiling:
                    raise CeilingExceededError(ceiling)
                open_stack.append((len(out), op[4], [], op[5]))
                out.append(None)
                stack.append(op[3])
                if op[2]:
                    stack.extend(op[2])
            elif k == _CHOICE:
                u = rnd()
                cps = op[1]
                i = 0
                while u >= cps[i]:
                    i += 1
                branch = op[2][i]
                if branch:
                    stack.extend(branch)
            elif k == _SEQ:
                reps = 1 + int(log(1.0 - rnd()) / op[1])
                if size + reps > ceiling:
                    raise CeilingExceededError(ceiling)
                child = op[2]
                for _ in range(reps):
                    stack.extend(child)
            elif k == _END:
                slot, name, attrs, ns = open_stack.pop()
                out[slot] = StartElement(name, tuple(attrs), ns)
                out.append(EndElement(name))
            elif k == _ATTR:
                size += 1
                if size > ceiling:
                    raise CeilingExceededError(ceiling)
                open_stack[-1][2].append(
                    (op[1], self._sample_value(op[2], rng_v, registry))
                )
            elif k == _TEXT:
                out.append(TextContent(registry[op[1]](rng_v)))
            elif k == _LIT:
                out.append(TextContent(op[1]))
            else:
                raise SamplingError("dead branch executed; plan is inconsistent")
        return out, size

    # -- public sampling --------------------------------------------------

    def free_sample(self, rng=None, *, ceiling=DEFAULT_FREE_CEILING, registry=None):
        """One unconstrained draw; returns (events, size).

        The size distribution is the Boltzmann law at the oracle's x; a
        draw that exceeds the ceiling raises CeilingExceededError."""
        if rng is None:
            rng = random.Random()
        elif isinstance(rng, int):
            rng = random.Random(rng)
        return self._walk_buffered(rng, rng, ceiling, self.registry_for(registry))

    def free_size(self, rng, *, ceiling=DEFAULT_FREE_CEILING):
        """Size of one unconstrained draw, -1 if it passed the ceiling."""
        return self._count_walk(rng, ceiling)

    def _streams(self, config):
        master = random.Random(config.seed)
        rng_s = random.Random(master.getrandbits(64))
        rng_v = random.Random(master.getrandbits(64))
        return rng_s, rng_v

    def sample_in_window(self, config):
        """Rejection-sample one document whose size lands in the window.

        Each attempt runs the counting pass only, aborting as soon as the
        running size passes the upper bound; an accepted attempt rewinds
        the structure stream and replays it to build the events.  Raises
        ExhaustedError with the observed size histogram if the budget runs
        out."""
        registry = self.registry_for(config.registry)
        window = config.window
        rng_s, rng_v = self._streams(config)
        sizes = []
        attempt, size = self._accept_attempt(
            rng_s, window.lower, window.upper, config.max_attempts, sizes
        )
        events, _ = self._walk_buffered(rng_s, rng_v, window.upper, registry)
        return WindowSample(events, size, attempt, sizes)

    def sample_to_sink(self, config, sink, *, xml_declaration=False):
        """Like sample_in_window but writing UTF-8 bytes to a binary sink.

        For grammars without late attributes the bytes go out while the
        document is generated; otherwise its events are buffered first."""
        registry = self.registry_for(config.registry)
        window = config.window
        upper = window.upper
        rng_s, rng_v = self._streams(config)
        sizes = []
        attempt, size = self._accept_attempt(
            rng_s, window.lower, upper, config.max_attempts, sizes
        )
        if self.buffered:
            events, _ = self._walk_buffered(rng_s, rng_v, upper, registry)
            written = serialize_stream(events, sink, xml_declaration=xml_declaration)
        else:
            written = 0
            if xml_declaration:
                sink.write(XML_DECLARATION)
                written = len(XML_DECLARATION)
            written += self._walk_write(rng_s, rng_v, upper, registry, sink)
        return StreamStats(size, attempt, written, sizes)

