"""A reference walk of the sampler's event plan, shared by the tests.

reference_events makes the writer walk's draws but builds events instead
of bytes, and aborts on the size drawn so far: an independent model of
the document that a seed's draws give, and of the draws a replay capped
at a size makes.  It is not a test module."""

import html
import math

from boltzxml import EndElement, StartElement, TextContent
from boltzxml.errors import CeilingExceededError, SamplingError
from boltzxml.sampler import (
    _ATTR, _CHOICE, _ELEM, _END, _LATE_ATTR, _LATE_ELEM, _LATE_END, _LIT,
    _SEQ, _TEXT,
)


def reference_events(sampler, rng_s, rng_v, ceiling, registry):
    """Run the sampler's event plan into an event list; returns (events,
    size).

    It makes the writer walk's draws, but builds each start event when
    its element opens and completes its attributes when it ends, so it
    needs no region buffer.  An element's tag is read from its
    definition, its namespace back from its encoded head and a literal's
    text from its escaped bytes.  It raises
    CeilingExceededError as soon as the size drawn passes ceiling, a
    repetition counting one per copy when it draws its count, so it may
    draw on past the point where the counting walk aborts."""
    stack = list(sampler._event_start)
    out = []
    open_stack = []  # (slot in out, name, attrs, ns)
    size = 0
    while stack:
        op = stack.pop()
        k = op[0]
        if k == _ELEM or k == _LATE_ELEM:
            size += 1
            if size > ceiling:
                raise CeilingExceededError(ceiling)
            _, _, ns = op[1].decode().partition(' xmlns="')
            ns = html.unescape(ns[:-1]) if ns else None
            name = sampler.grammar.defines[op[4]].name
            open_stack.append((len(out), name, [], ns))
            out.append(None)
            stack.append(op[3])
            stack.extend(op[2])
        elif k == _CHOICE:
            u = rng_s.random()
            i = 0
            while u >= op[1][i]:
                i += 1
            stack.extend(op[2][i])
        elif k == _SEQ:
            reps = 1 + int(math.log(1.0 - rng_s.random()) / op[1])
            if size + reps > ceiling:
                raise CeilingExceededError(ceiling)
            for _ in range(reps):
                stack.extend(op[2])
        elif k == _END or k == _LATE_END:
            slot, name, attrs, ns = open_stack.pop()
            out[slot] = StartElement(name, tuple(attrs), ns)
            out.append(EndElement(name))
        elif k == _ATTR or k == _LATE_ATTR:
            size += 1
            if size > ceiling:
                raise CeilingExceededError(ceiling)
            open_stack[-1][2].append(
                (op[1], sampler._sample_value(op[2], rng_v, registry))
            )
        elif k == _TEXT:
            out.append(TextContent(registry[op[1]](rng_v)))
        elif k == _LIT:
            out.append(TextContent(html.unescape(op[1].decode())))
        else:
            raise SamplingError("dead branch executed")
    return out, size
