"""Structural re-validation of documents against a grammar.

The matcher checks structure only: element names, attribute names, child
order and counts.  Attributes match as a set, in any order, since XML
gives their order no meaning (XML 1.0 section 3.1).  Leaf lexical content
(text bodies, attribute values) is deliberately ignored, matching what
the counting semantics distinguish.

Children are matched before their parents, with an explicit stack, so the
recursion follows only the grammar's nesting, never the document's.  Each
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


def _element_ok(p, view, defines, matched):
    """Whether a document node, seen as view, matches the element pattern
    p; matched holds, by id, the definitions' elements each of its
    element children matches."""
    uri, local, attrs, children = view
    if local not in (p.name, p.name.split(":")[-1]):
        return False
    if p.ns is not None and uri is not None and uri != p.ns:
        return False

    def states(q, current):
        """The (mask of attributes used, children consumed) states
        reachable by matching q from any state in current."""
        if not current:
            return current
        t = type(q)
        if t is ast.Group:
            return states(q.right, states(q.left, current))
        if t is ast.Choice:
            return states(q.left, current) | states(q.right, current)
        if t is ast.OneOrMore:
            reached = frontier = states(q.child, current)
            while frontier:
                frontier = states(q.child, frontier) - reached
                reached = reached | frontier
            return reached
        if t is ast.Attribute:
            # any attribute of that name not used yet
            names = (q.name, q.name.split(":")[-1])
            out = set()
            for i, name in enumerate(attrs):
                if name in names:
                    bit = 1 << i
                    out.update((used | bit, c) for used, c in current if not used & bit)
            return out
        if t is ast.Ref:
            return {
                (used, c + 1)
                for used, c in current
                if c < len(children)
                and id(defines[q.name]) in matched[id(children[c])]
            }
        if t is ast.NotAllowed:
            return set()
        if t in (ast.Empty, ast.Text, ast.Data, ast.Value):
            return current
        raise TypeError("unexpected pattern %s" % t.__name__)

    final = ((1 << len(attrs)) - 1, len(children))
    return final in states(p.content, {(0, 0)})


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
        else:
            candidates = by_name.get(view[1], ())
            matched[id(node)] = {
                id(p) for p in candidates if _element_ok(p, view, defines, matched)
            }

    root = matched[id(doc)]
    todo = [grammar.start]
    while todo:
        p = todo.pop()
        if type(p) is ast.Choice:
            todo += (p.left, p.right)
        elif type(p) is ast.Ref and id(defines[p.name]) in root:
            return True
    return False
