"""Normalized pattern AST for RELAX NG grammars.

After parsing, a grammar is a start pattern plus named definitions whose
bodies are all element patterns.  Choices and groups are binary, repetition
is oneOrMore only, and every recursive cycle passes through an element.
The canonical textual dump is line oriented, one node per line, and
round-trips exactly (see to_canonical / from_canonical).  Pattern trees
are walked by iter_nodes and fold, the graph of definitions by depth_first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from .errors import GrammarError

__all__ = [
    "Pattern",
    "Choice",
    "Group",
    "OneOrMore",
    "Ref",
    "Element",
    "Attribute",
    "Text",
    "Data",
    "Value",
    "Empty",
    "NotAllowed",
    "Grammar",
    "iter_nodes",
    "depth_first",
    "reachable",
    "fold",
    "check_normal_form",
    "to_canonical",
    "from_canonical",
]

Loc = "tuple[int, int] | None"


class Pattern:
    """Base class for all pattern nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Choice(Pattern):
    left: Pattern
    right: Pattern
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Group(Pattern):
    left: Pattern
    right: Pattern
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OneOrMore(Pattern):
    child: Pattern
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Ref(Pattern):
    name: str
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Element(Pattern):
    name: str
    content: Pattern
    ns: str | None = None
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Attribute(Pattern):
    name: str
    content: Pattern
    ns: str | None = None
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Text(Pattern):
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Data(Pattern):
    type: str
    params: tuple = ()
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Value(Pattern):
    type: str
    literal: str
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Empty(Pattern):
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NotAllowed(Pattern):
    loc: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class Grammar:
    """start pattern plus definitions; every definition body is an Element."""

    start: Pattern
    defines: dict
    source: str | None = field(default=None, compare=False)


# a node's children, last first, by the node's type; leaves have none
_KIDS = {
    Choice: attrgetter("right", "left"),
    Group: attrgetter("right", "left"),
    OneOrMore: lambda p: (p.child,),
    Element: lambda p: (p.content,),
    Attribute: lambda p: (p.content,),
}


def iter_nodes(pattern):
    """Yield every node of a pattern tree, preorder."""
    stack = [pattern]
    while stack:
        node = stack.pop()
        yield node
        if type(node) in _KIDS:
            stack += _KIDS[type(node)](node)


def depth_first(roots, edges):
    """Search a graph depth first from each root in turn, edges(node)
    giving a node's successors, with a stack of edge iterators so no path
    reaches the recursion limit (Tarjan, SIAM J. Comput. 1972).  Return
    the nodes in the order the search enters them and leaves them, as a
    recursive search would, and the first edge back into the search's
    trail as a path ending in the repeated node, or None."""
    pre, post, trail, cycle = {}, [], {}, None  # trail: outermost first
    todo = [iter(roots)]
    while todo:
        for node in todo[-1]:
            if node not in pre:
                pre[node] = trail[node] = None
                todo.append(iter(edges(node)))
                break
            if node in trail and cycle is None:
                cycle = [*trail, node][list(trail).index(node):]
        else:
            todo.pop()
            if trail:
                post.append(trail.popitem()[0])
    return list(pre), post, cycle


def reachable(start, defines):
    """Names of the definitions reachable from the start pattern, in the
    preorder of depth_first."""

    def refs_of(pattern):
        return (n.name for n in iter_nodes(pattern) if isinstance(n, Ref))

    return depth_first(refs_of(start), lambda name: refs_of(defines[name]))[0]


def fold(pattern, visit):
    """Fold a pattern bottom up with an explicit stack, so no nesting
    reaches the recursion limit, and return the root's value.  visit(node,
    values) gets each node with its children's values, left to right, as
    a recursive walk would make them; a subtree reached twice is folded
    twice."""
    values = []
    stack = [pattern]
    pop, kids_of = stack.pop, _KIDS.get
    while stack:
        node = pop()
        if type(node) is tuple:  # the children of node[0] are folded
            node, n = node
            values[-n:] = [visit(node, values[-n:])]
            continue
        kids = kids_of(type(node))
        if kids is None:
            values.append(visit(node, ()))
        else:
            kids = kids(node)
            stack.append((node, len(kids)))
            stack += kids
    return values[0]


def check_normal_form(grammar):
    """Raise GrammarError, located at the offending node, if the grammar
    is not in the normal form the system compiler and the sampler read;
    return the late definitions.

    Checked: the start pattern is built from Ref, Choice and NotAllowed
    only; every definition body is an Element and no other Element
    occurs; every Ref resolves; no element, reference or other
    attribute occurs below an attribute; no attribute occurs below a
    oneOrMore, where it would always repeat; no two sides of a group
    hold an attribute of one name, which RELAX NG forbids whatever the
    weights (section 7.3 of the 2001 specification); names compare as
    they are written, without their namespace, and a duplicate is
    reported only when no other rule is broken.

    Each definition's content folds bottom up, with an explicit stack,
    into (attribute nodes by name, can emit content, can emit an
    attribute after content), a reference being content.  The late
    definitions, returned as a frozenset of names, are those whose
    content can emit an attribute after content.
    parse_grammar calls this last; Sampler calls it again, so a grammar
    built from the AST or from_canonical is refused before any draw.
    """

    def fail(message, node):
        raise GrammarError.at(message, grammar.source, node)

    stack = [grammar.start]
    while stack:
        node = stack.pop()
        if isinstance(node, Choice):
            stack.extend((node.left, node.right))
        elif not isinstance(node, (Ref, NotAllowed)):
            fail(
                "start pattern must be a choice of element patterns, "
                "found %s" % type(node).__name__.lower(),
                node,
            )
    for name, body in grammar.defines.items():
        if not isinstance(body, Element):
            fail("definition %r is not an element pattern" % name, body)
    late, duplicate = [], None
    roots = [(b.name, b.content, n) for n, b in grammar.defines.items()]
    for element, root, name in [(None, grammar.start, None), *roots]:
        done = []
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple) and isinstance(node[0], OneOrMore):
                # its child is done; a repeated attribute would always
                # serialize as a duplicate
                attrs = done[-1][0]
                if attrs:
                    inner = attrs[min(attrs)]
                    fail("attribute %r inside oneOrMore would repeat" % inner.name, inner)
            elif isinstance(node, tuple):  # both sides of node[0] are done
                right, left = done.pop(), done.pop()
                after = left[2] or right[2]
                if isinstance(node[0], Group):
                    after = after or left[1] and bool(right[0])
                # the smaller map goes into the larger, so a deep pattern
                # merges in linear time; the right side's node wins
                small, large = left[0], right[0]
                if len(small) > len(large):
                    small, large = large, small
                if small and isinstance(node[0], Group):
                    shared = [k for k in small if k in large]
                    if shared and not duplicate:
                        first = min(shared)
                        duplicate = (
                            "duplicate attribute %r on element %r" % (first, element),
                            right[0][first],
                        )
                if small is right[0]:
                    large.update(small)
                else:
                    for key, inner in small.items():
                        large.setdefault(key, inner)
                done.append((large, left[1] or right[1], after))
            elif isinstance(node, (Choice, Group)):
                stack += ((node,), node.right, node.left)
            elif isinstance(node, OneOrMore):
                stack += ((node,), node.child)
            elif isinstance(node, Attribute):
                for inner in iter_nodes(node.content):
                    if isinstance(inner, (Element, Ref)):
                        fail("attribute %r contains an element pattern" % node.name, node)
                    if isinstance(inner, Attribute):
                        fail("attribute %r contains another attribute" % node.name, node)
                done.append(({node.name: node}, False, False))
            elif isinstance(node, Ref) and node.name not in grammar.defines:
                fail("reference to undefined pattern %r" % node.name, node)
            elif isinstance(node, Element):
                fail("element %r is nested in a pattern; an element occurs "
                     "only as a definition body" % node.name, node)
            else:
                done.append(({}, isinstance(node, (Ref, Text, Data, Value)), False))
        if done[0][2]:
            late.append(name)
    if duplicate:
        fail(*duplicate)
    return frozenset(late)


# ---------------------------------------------------------------------------
# canonical textual form

_INDENT = "  "


def _q(s):
    return json.dumps(s, ensure_ascii=False)


def _emit(lines, pattern, depth):
    stack = [(pattern, depth)]
    while stack:
        p, depth = stack.pop()
        ind = _INDENT * depth
        if isinstance(p, Choice):
            lines.append(ind + "choice")
        elif isinstance(p, Group):
            lines.append(ind + "group")
        elif isinstance(p, OneOrMore):
            lines.append(ind + "oneOrMore")
        elif isinstance(p, Ref):
            lines.append(ind + "ref " + _q(p.name))
        elif isinstance(p, (Element, Attribute)):
            head = ind + type(p).__name__.lower() + " " + _q(p.name)
            if p.ns is not None:
                head += " ns=" + _q(p.ns)
            lines.append(head)
        elif isinstance(p, Text):
            lines.append(ind + "text")
        elif isinstance(p, Data):
            lines.append(ind + "data " + _q(p.type))
            for name, value in p.params:
                lines.append(ind + _INDENT + "param " + _q(name) + " " + _q(value))
        elif isinstance(p, Value):
            lines.append(ind + "value " + _q(p.type) + " " + _q(p.literal))
        elif isinstance(p, Empty):
            lines.append(ind + "empty")
        elif isinstance(p, NotAllowed):
            lines.append(ind + "notAllowed")
        else:  # pragma: no cover
            raise TypeError("unknown pattern node %r" % p)
        kids = _KIDS.get(type(p))
        if kids:
            stack += ((kid, depth + 1) for kid in kids(p))


def to_canonical(grammar):
    """Dump a grammar to its canonical textual form.

    The start block comes first, then definitions sorted by name; indenting
    is two spaces per level.  from_canonical inverts this exactly.
    """
    lines = ["start"]
    _emit(lines, grammar.start, 1)
    for name in sorted(grammar.defines):
        lines.append("define " + _q(name))
        _emit(lines, grammar.defines[name], 1)
    return "\n".join(lines) + "\n"


_DECODER = json.JSONDecoder()

# how from_canonical builds a choice, group or oneOrMore, and from how many
# children
_INNER = {"choice": (Choice, 2), "group": (Group, 2), "oneOrMore": (OneOrMore, 1)}


def _tokenize(body, lineno):
    tokens = []
    i, n = 0, len(body)
    while i < n:
        if body[i] == " ":
            i += 1
            continue
        if body.startswith('ns="', i):
            value, i = _string(body, i + 3, lineno)
            tokens.append(("ns", value))
        elif body[i] == '"':
            value, i = _string(body, i, lineno)
            tokens.append(("str", value))
        else:
            j = i
            while j < n and body[j] != " ":
                j += 1
            tokens.append(("word", body[i:j]))
            i = j
    return tokens


def _string(body, start, lineno):
    # start points at the opening quote; return the value and the index one
    # past the closing quote
    try:
        return _DECODER.raw_decode(body, start)
    except json.JSONDecodeError as exc:
        what = "unterminated string" if exc.msg.startswith("Unterminated") else exc.msg
        raise ValueError("line %d: %s" % (lineno, what)) from None


def from_canonical(text):
    """Parse the canonical textual form back into a Grammar."""
    rows = []  # (depth, tokens, lineno)
    # split on "\n" only: splitlines would also break on U+2028 etc.,
    # which quoted names may legally contain
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        pad = len(raw) - len(stripped)
        if pad % len(_INDENT):
            raise ValueError("line %d: indentation is not a multiple of 2" % lineno)
        rows.append((pad // len(_INDENT), _tokenize(stripped, lineno), lineno))

    pos = 0

    def need_str(tokens, idx, what, lineno):
        if idx >= len(tokens) or tokens[idx][0] != "str":
            raise ValueError("line %d: expected quoted %s" % (lineno, what))
        return tokens[idx][1]

    def parse_pattern(depth):
        """The pattern whose first row is at depth.  Its rows come in
        preorder, so frames holds each node still missing children: how to
        build it, how many it takes and those parsed so far."""
        nonlocal pos
        frames = []
        while True:
            if pos >= len(rows) or rows[pos][0] != depth:
                lineno = rows[pos - 1][2] if pos else 0
                raise ValueError("line %d: expected a child pattern" % lineno)
            d, tokens, lineno = rows[pos]
            pos += 1
            kind = tokens[0][1] if tokens and tokens[0][0] == "word" else None
            if kind in _INNER:
                frames.append((*_INNER[kind], []))
                depth += 1
                continue
            if kind in ("element", "attribute"):
                name = need_str(tokens, 1, "name", lineno)
                ns = None
                if len(tokens) > 2:
                    if tokens[2][0] != "ns":
                        raise ValueError("line %d: unexpected token after name" % lineno)
                    ns = tokens[2][1]
                cls = Element if kind == "element" else Attribute
                frames.append((partial(cls, name, ns=ns), 1, []))
                depth += 1
                continue
            if kind == "ref":
                node = Ref(need_str(tokens, 1, "name", lineno))
            elif kind == "text":
                node = Text()
            elif kind == "empty":
                node = Empty()
            elif kind == "notAllowed":
                node = NotAllowed()
            elif kind == "value":
                node = Value(
                    need_str(tokens, 1, "type", lineno),
                    need_str(tokens, 2, "literal", lineno),
                )
            elif kind == "data":
                dtype = need_str(tokens, 1, "type", lineno)
                params = []
                while pos < len(rows) and rows[pos][0] == depth + 1:
                    d2, t2, l2 = rows[pos]
                    if not (t2 and t2[0] == ("word", "param")):
                        raise ValueError("line %d: expected param line" % l2)
                    params.append((
                        need_str(t2, 1, "param name", l2), need_str(t2, 2, "param value", l2)
                    ))
                    pos += 1
                node = Data(dtype, tuple(params))
            else:
                raise ValueError("line %d: unknown node kind %r" % (lineno, kind))
            # close every node that this one completes
            while frames and len(frames[-1][2]) + 1 == frames[-1][1]:
                build, _, kids = frames.pop()
                node = build(*kids, node)
                depth -= 1
            if not frames:
                return node
            frames[-1][2].append(node)

    start = None
    defines = {}
    while pos < len(rows):
        depth, tokens, lineno = rows[pos]
        if depth != 0:
            raise ValueError("line %d: unexpected indentation" % lineno)
        kind = tokens[0][1] if tokens and tokens[0][0] == "word" else None
        if kind == "start":
            if start is not None:
                raise ValueError("line %d: duplicate start block" % lineno)
            pos += 1
            start = parse_pattern(1)
        elif kind == "define":
            name = need_str(tokens, 1, "name", lineno)
            if name in defines:
                raise ValueError("line %d: duplicate definition %r" % (lineno, name))
            pos += 1
            body = parse_pattern(1)
            if not isinstance(body, Element):
                raise ValueError(
                    "line %d: definition %r must be an element" % (lineno, name)
                )
            defines[name] = body
        else:
            raise ValueError("line %d: expected start or define" % lineno)
    if start is None:
        raise ValueError("canonical form has no start block")
    return Grammar(start, defines)
