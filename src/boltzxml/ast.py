"""Normalized pattern AST for RELAX NG grammars.

After parsing, a grammar is a start pattern plus named definitions whose
bodies are all element patterns.  Choices and groups are binary, repetition
is oneOrMore only, and every recursive cycle passes through an element.
The canonical textual dump is line oriented, one node per line, and
round-trips exactly (see to_canonical / from_canonical).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def _children(p):
    if isinstance(p, (Choice, Group)):
        return (p.left, p.right)
    if isinstance(p, OneOrMore):
        return (p.child,)
    if isinstance(p, (Element, Attribute)):
        return (p.content,)
    return ()


def iter_nodes(pattern):
    """Yield every node of a pattern tree, preorder."""
    stack = [pattern]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


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
        line, column = node.loc if node.loc else (None, None)
        raise GrammarError(message, source=grammar.source, line=line, column=column)

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
            if isinstance(node, tuple):  # both sides of node[0] are done
                right, left = done.pop(), done.pop()
                after = left[2] or right[2]
                if isinstance(node[0], Group):
                    after = after or left[1] and bool(right[0])
                    shared = sorted(left[0].keys() & right[0].keys())
                    if shared and not duplicate:
                        duplicate = (
                            "duplicate attribute %r on element %r"
                            % (shared[0], element), right[0][shared[0]],
                        )
                done.append(({**left[0], **right[0]}, left[1] or right[1], after))
            elif isinstance(node, (Choice, Group)):
                stack += ((node,), node.right, node.left)
            elif isinstance(node, OneOrMore):
                # a repeated attribute would always serialize as a duplicate
                for inner in iter_nodes(node.child):
                    if isinstance(inner, Attribute):
                        fail("attribute %r inside oneOrMore would repeat" % inner.name, inner)
                stack.append(node.child)
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
    ind = _INDENT * depth
    p = pattern
    if isinstance(p, Choice):
        lines.append(ind + "choice")
        _emit(lines, p.left, depth + 1)
        _emit(lines, p.right, depth + 1)
    elif isinstance(p, Group):
        lines.append(ind + "group")
        _emit(lines, p.left, depth + 1)
        _emit(lines, p.right, depth + 1)
    elif isinstance(p, OneOrMore):
        lines.append(ind + "oneOrMore")
        _emit(lines, p.child, depth + 1)
    elif isinstance(p, Ref):
        lines.append(ind + "ref " + _q(p.name))
    elif isinstance(p, Element):
        head = ind + "element " + _q(p.name)
        if p.ns is not None:
            head += " ns=" + _q(p.ns)
        lines.append(head)
        _emit(lines, p.content, depth + 1)
    elif isinstance(p, Attribute):
        head = ind + "attribute " + _q(p.name)
        if p.ns is not None:
            head += " ns=" + _q(p.ns)
        lines.append(head)
        _emit(lines, p.content, depth + 1)
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
        nonlocal pos
        if pos >= len(rows) or rows[pos][0] != depth:
            lineno = rows[pos - 1][2] if pos else 0
            raise ValueError("line %d: expected a child pattern" % lineno)
        d, tokens, lineno = rows[pos]
        pos += 1
        kind = tokens[0][1] if tokens and tokens[0][0] == "word" else None
        if kind == "choice":
            return Choice(parse_pattern(depth + 1), parse_pattern(depth + 1))
        if kind == "group":
            return Group(parse_pattern(depth + 1), parse_pattern(depth + 1))
        if kind == "oneOrMore":
            return OneOrMore(parse_pattern(depth + 1))
        if kind == "ref":
            return Ref(need_str(tokens, 1, "name", lineno))
        if kind in ("element", "attribute"):
            name = need_str(tokens, 1, "name", lineno)
            ns = None
            if len(tokens) > 2:
                if tokens[2][0] != "ns":
                    raise ValueError("line %d: unexpected token after name" % lineno)
                ns = tokens[2][1]
            content = parse_pattern(depth + 1)
            cls = Element if kind == "element" else Attribute
            return cls(name, content, ns=ns)
        if kind == "text":
            return Text()
        if kind == "empty":
            return Empty()
        if kind == "notAllowed":
            return NotAllowed()
        if kind == "value":
            return Value(
                need_str(tokens, 1, "type", lineno),
                need_str(tokens, 2, "literal", lineno),
            )
        if kind == "data":
            dtype = need_str(tokens, 1, "type", lineno)
            params = []
            while pos < len(rows) and rows[pos][0] == depth + 1:
                d2, t2, l2 = rows[pos]
                if not (t2 and t2[0] == ("word", "param")):
                    raise ValueError("line %d: expected param line" % l2)
                params.append(
                    (need_str(t2, 1, "param name", l2), need_str(t2, 2, "param value", l2))
                )
                pos += 1
            return Data(dtype, tuple(params))
        raise ValueError("line %d: unknown node kind %r" % (lineno, kind))

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
