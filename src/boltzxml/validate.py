"""Structural re-validation of documents against a grammar.

The matcher checks structure only: element names, attribute names, child
order and counts.  Attributes match as a set, in any order, since XML
gives their order no meaning (XML 1.0 section 3.1).  Leaf lexical content
(text bodies, attribute values) is deliberately ignored, matching what
the counting semantics distinguish.

Children are matched before their parents, with an explicit stack, and
each definition's content is folded once per call into a flat program
(_program) that runs over a set of states with a work stack, so nothing
recurses along the document's depth or the grammar's nesting.  Each
document node gets the set of definitions' element patterns it matches,
built from its children's sets; a reference in content is then a
membership test on the child's set.  The grammar must be in normal form
(ast.check_normal_form), as parse_grammar leaves it, so every element is
a definition's body.

Accepts either DocNode trees or xml.etree elements.
"""

from __future__ import annotations

from xml.etree import ElementTree

from . import ast
from .serialize import DocNode

__all__ = ["matches"]


def _split_ns(tag):
    if tag.startswith("{"):
        uri, _, local = tag[1:].partition("}")
        return uri, local
    return None, tag


def _view(node):
    """(ns, name, attribute names, element children)."""
    if isinstance(node, DocNode):
        return (
            None,
            node.name,
            [n for n, _ in node.attrs],
            [c for c in node.children if isinstance(c, DocNode)],
        )
    if isinstance(node, ElementTree.Element):
        uri, local = _split_ns(node.tag)
        names = [_split_ns(k)[1] for k in node.attrib]
        return uri, local, names, list(node)
    raise TypeError("cannot validate %r" % type(node).__name__)


def _program(pattern, defines):
    """A pattern as a flat program.  At index pc, ("attr", names) uses an
    unused attribute named one of names and ("ref", element) consumes a
    child that matches the element of that id, each going on at pc + 1;
    ("fork", k) goes on at pc + 1 and at pc + k, ("jump", k) at pc + k.
    A node's ops jump only within its own: a group's are its sides' in
    turn, a choice forks past its left side to its right, a oneOrMore
    forks back to its child's start, and notAllowed is an attribute of no
    name."""

    def visit(q, kids):
        t = type(q)
        if t is ast.Group:
            return kids[0] + kids[1]
        if t is ast.Choice:
            left, right = kids
            return [("fork", len(left) + 2), *left, ("jump", len(right) + 1), *right]
        if t is ast.OneOrMore:
            return [*kids[0], ("fork", -len(kids[0]))]
        if t is ast.Attribute:
            return [("attr", (q.name, q.name.split(":")[-1]))]
        if t is ast.Ref:
            return [("ref", id(defines[q.name]))]
        if t is ast.NotAllowed:
            return [("attr", ())]
        if t in (ast.Empty, ast.Text, ast.Data, ast.Value):
            return []
        raise TypeError("unexpected pattern %s" % t.__name__)

    return ast.fold(pattern, visit)


def _accepts(program, attrs, children, matched):
    """Whether the program, run to its end, can use every attribute name
    in attrs and consume every element child; matched holds, by id, the
    definitions' elements each child matches.  The program runs over the
    states (pc, mask of attributes used, children consumed) with a work
    stack, each state once."""
    final = (len(program), (1 << len(attrs)) - 1, len(children))
    seen = set()
    stack = [(0, 0, 0)]
    while stack:
        state = stack.pop()
        if state == final:
            return True
        if state in seen or state[0] == final[0]:
            continue
        seen.add(state)
        pc, used, c = state
        op, arg = program[pc]
        if op == "fork":
            stack += ((pc + 1, used, c), (pc + arg, used, c))
        elif op == "jump":
            stack.append((pc + arg, used, c))
        elif op == "ref":
            if c < len(children) and arg in matched[id(children[c])]:
                stack.append((pc + 1, used, c + 1))
        else:
            for i, name in enumerate(attrs):
                if name in arg and not used >> i & 1:
                    stack.append((pc + 1, used | 1 << i, c))
    return False


def matches(grammar, doc):
    """True when the document's structure is derivable from the grammar,
    which must be in normal form.

    doc is a DocNode or an xml.etree Element (the document root)."""
    defines = grammar.defines
    by_name = {}  # a name a document node may carry -> definitions' elements
    for body in defines.values():
        for name in {body.name, body.name.split(":")[-1]}:
            by_name.setdefault(name, []).append(body)
    matched = {}  # id of a document node -> ids of the element patterns it matches
    programs = {}  # id of a definition's element -> its content's program

    # children first; a node is pushed back with its view above its children
    stack = [(doc, None)]
    while stack:
        node, view = stack.pop()
        if id(node) in matched:
            continue
        if view is None:
            view = _view(node)
            stack.append((node, view))
            stack.extend((c, None) for c in view[3])
            continue
        uri, _, attrs, children = view
        ok = matched[id(node)] = set()
        for p in by_name.get(view[1], ()):
            if p.ns is not None and uri is not None and uri != p.ns:
                continue
            if id(p) not in programs:
                programs[id(p)] = _program(p.content, defines)
            if _accepts(programs[id(p)], attrs, children, matched):
                ok.add(id(p))
    # the root is the one child of the start pattern
    return _accepts(_program(grammar.start, defines), (), [doc], matched)
