"""RELAX NG (XML syntax) parser producing the normalized pattern AST.

The supported subset covers named elements and attributes, choice, group,
interleave, optional, zeroOrMore, oneOrMore, mixed, ref/define, text, empty,
notAllowed, data (with params) and value.  Name classes (anyName, nsName),
externalRef, include, list and the compact syntax are rejected with an error
naming the feature.

Normalization performed here, in order: syntactic sugar is rewritten while
building (zeroOrMore, optional, mixed become choice/oneOrMore/group forms,
interleave is approximated by group, n-ary choice and group fold to binary,
and repeated definitions merge by their combine method, choice or
interleave); every inline element pattern is hoisted to a fresh named
definition, and an undefined reference is reported on the way; every
definition whose body is not an element is inlined at its use sites, in
the postorder of ast.depth_first, and a definition cycle that never
crosses an element is reported as its first cycle; definitions that
ast.reachable does not reach from the start are dropped.  Last,
ast.check_normal_form checks the result once, so recursion is guaranteed
to pass through an element and the start, reference and attribute rules
hold.
"""

from __future__ import annotations

import re

from . import ast
from ._xmlread import XmlNode, read_xml
from .errors import GrammarError

__all__ = ["RNG_NS", "parse_grammar", "parse_grammar_file"]

RNG_NS = "http://relaxng.org/ns/structure/1.0"

_UNSUPPORTED = {
    "externalRef": "externalRef",
    "include": "include",
    "parentRef": "parentRef",
    "list": "list",
    "anyName": "anyName name class",
    "nsName": "nsName name class",
    "except": "except",
    "grammar": "nested grammar",
}

# QName: optional prefix, both parts NCName-shaped
_NAME_RE = re.compile(r"^[^\W\d][\w.\-]*(:[^\W\d][\w.\-]*)?$")


class _Builder:
    def __init__(self, source):
        self.source = source

    def err(self, message, node):
        line = getattr(node, "line", None)
        col = getattr(node, "column", None)
        raise GrammarError(message, source=self.source, line=line, column=col)

    # -- helpers ----------------------------------------------------------

    def rng_children(self, node):
        out = []
        for child in node.children:
            if isinstance(child, XmlNode) and child.uri == RNG_NS:
                out.append(child)
            # character data and foreign-namespace annotations are ignored
        return out

    def loc(self, node):
        return (node.line, node.column)

    def named_pattern(self, node, kind, ns):
        """Extract the name of an element or attribute pattern and return
        (name, remaining pattern children)."""
        children = self.rng_children(node)
        if "name" in node.attrs:
            name = node.attrs["name"].strip()
            if not _NAME_RE.match(name):
                self.err("invalid %s name %r" % (kind, name), node)
            return name, children
        if children and children[0].local in ("anyName", "nsName", "choice"):
            feature = children[0].local
            if feature == "choice":
                feature = "name-class choice"
            self.err("unsupported RELAX NG feature: %s" % feature, children[0])
        if children and children[0].local == "name":
            name = children[0].text().strip()
            if not _NAME_RE.match(name):
                self.err("invalid %s name %r" % (kind, name), children[0])
            return name, children[1:]
        self.err("%s pattern has no name" % kind, node)

    def fold(self, node, patterns, cls):
        if not patterns:
            self.err("%s needs at least one pattern" % node.local, node)
        result = patterns[-1]
        for p in reversed(patterns[:-1]):
            result = cls(p, result, loc=self.loc(node))
        return result

    def group_of(self, node, children, ns, cls=ast.Group):
        """Steps that build the children's patterns and fold them by cls."""
        patterns = []
        for c in children:
            patterns.append((yield c, ns))
        return self.fold(node, patterns, cls)

    # -- pattern dispatch -------------------------------------------------

    def run(self, steps):
        """The value of steps, a generator that yields (node, ns) for each
        pattern it needs and is sent that pattern back.  Nested steps wait
        on an explicit stack, so no nesting in the schema file reaches the
        recursion limit, and run as a recursive descent would."""
        stack, value = [steps], None
        while stack:
            try:
                node, ns = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(self.build(node, ns))
                value = None
        return value

    def build(self, node, ns):
        """The steps that build node's pattern, for run."""
        if node.uri != RNG_NS:
            self.err("element %r is not in the RELAX NG namespace" % node.local, node)
        if "ns" in node.attrs:
            ns = node.attrs["ns"] or None
        local = node.local
        loc = self.loc(node)

        if local == "element":
            name, rest = self.named_pattern(node, "element", ns)
            if not rest:
                self.err("element %r has no content pattern" % name, node)
            content = yield from self.group_of(node, rest, ns)
            return ast.Element(name, content, ns=ns, loc=loc)

        if local == "attribute":
            # attribute ns is not inherited; only an explicit ns applies
            own_ns = node.attrs.get("ns") or None
            name, rest = self.named_pattern(node, "attribute", ns)
            if rest:
                content = yield from self.group_of(node, rest, ns)
            else:
                content = ast.Text(loc=loc)  # default attribute content
            return ast.Attribute(name, content, ns=own_ns, loc=loc)

        if local == "choice":
            return (yield from self.group_of(node, self.rng_children(node), ns, ast.Choice))
        if local in ("group", "div", "interleave", "optional", "zeroOrMore",
                     "oneOrMore", "mixed"):
            # interleave is approximated by an ordered group; document order is kept
            inner = yield from self.group_of(node, self.rng_children(node), ns)
            if local == "optional":
                return ast.Choice(ast.Empty(loc=loc), inner, loc=loc)
            if local == "zeroOrMore":
                return ast.Choice(ast.Empty(loc=loc), ast.OneOrMore(inner, loc=loc), loc=loc)
            if local == "oneOrMore":
                return ast.OneOrMore(inner, loc=loc)
            if local == "mixed":
                return ast.Group(ast.Text(loc=loc), inner, loc=loc)
            return inner
        if local == "ref":
            name = node.attrs.get("name", "").strip()
            if not name:
                self.err("ref has no name attribute", node)
            return ast.Ref(name, loc=loc)
        if local == "text":
            return ast.Text(loc=loc)
        if local == "empty":
            return ast.Empty(loc=loc)
        if local == "notAllowed":
            return ast.NotAllowed(loc=loc)
        if local == "value":
            return ast.Value(node.attrs.get("type", "token"), node.text(), loc=loc)
        if local == "data":
            dtype = node.attrs.get("type")
            if not dtype:
                self.err("data pattern has no type attribute", node)
            params = []
            for child in self.rng_children(node):
                if child.local == "param":
                    pname = child.attrs.get("name")
                    if not pname:
                        self.err("param has no name attribute", child)
                    params.append((pname, child.text()))
                elif child.local == "except":
                    self.err("unsupported RELAX NG feature: data/except", child)
                else:
                    self.err("unexpected %r inside data" % child.local, child)
            return ast.Data(dtype, tuple(params), loc=loc)
        if local in _UNSUPPORTED:
            self.err("unsupported RELAX NG feature: %s" % _UNSUPPORTED[local], node)
        self.err("unknown RELAX NG element %r" % local, node)

    # -- grammar container ------------------------------------------------

    def combine(self, node, entries, what):
        """Apply RELAX NG combine semantics to [(combine, pattern, node)]."""
        # RELAX NG section 4.2 strips the whitespace around a combine value
        methods = [m if m is None else m.strip() for m, _, _ in entries]
        for method, (raw, _, at) in zip(methods, entries):
            if method not in (None, "choice", "interleave"):
                self.err("combine %r of %s is not choice or interleave" % (raw, what), at)
        if methods.count(None) > 1:
            self.err("multiple definitions of %s without combine" % what, node)
        kinds = set(methods) - {None}
        if len(kinds) > 1:
            self.err("conflicting combine methods for %s" % what, node)
        cls = ast.Choice if kinds == {"choice"} else ast.Group
        return self.fold(node, [e[1] for e in entries], cls)

    def grammar_body(self, node, ns, starts, defines):
        """Collect the start and define elements of a grammar, in document
        order, walking nested divs with an explicit stack."""
        todo = [(iter(self.rng_children(node)), ns)]
        while todo:
            children, ns = todo[-1]
            child = next(children, None)
            if child is None:
                todo.pop()
            elif child.local == "start":
                inner = self.run(self.group_of(child, self.rng_children(child), ns))
                starts.append((child.attrs.get("combine"), inner, child))
            elif child.local == "define":
                name = child.attrs.get("name", "").strip()
                if not name:
                    self.err("define has no name attribute", child)
                inner = self.run(self.group_of(child, self.rng_children(child), ns))
                defines.setdefault(name, []).append(
                    (child.attrs.get("combine"), inner, child)
                )
            elif child.local == "div":
                todo.append((iter(self.rng_children(child)), child.attrs.get("ns", ns)))
            elif child.local == "include":
                self.err("unsupported RELAX NG feature: include", child)
            else:
                self.err("unexpected %r inside grammar" % child.local, child)


def parse_grammar(data, source="<grammar>"):
    """Parse RELAX NG XML (bytes or str) into a normalized Grammar."""
    b = _Builder(source)
    root = read_xml(data, source=source)
    if root.uri != RNG_NS:
        raise GrammarError(
            "root element is not in the RELAX NG namespace (%s)" % RNG_NS,
            source=source,
            line=root.line,
            column=root.column,
        )
    ns = root.attrs.get("ns") or None
    if root.local == "grammar":
        starts, defines_raw = [], {}
        b.grammar_body(root, ns, starts, defines_raw)
        if not starts:
            b.err("grammar has no start pattern", root)
        start = b.combine(starts[0][2], starts, "start")
        defines = {
            name: b.combine(entries[0][2], entries, "define %r" % name)
            for name, entries in defines_raw.items()
        }
    else:
        start = b.run(b.build(root, ns))
        defines = {}
    return _normalize(start, defines, source)


def parse_grammar_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_grammar(data, source=str(path))


# ---------------------------------------------------------------------------
# normalization passes


def _normalize(start, defines, source):
    start, defines = _hoist(start, defines, source)
    start, defines = _inline(start, defines, source)
    grammar = ast.Grammar(start, _prune(start, defines), source=source)
    ast.check_normal_form(grammar)
    return grammar


def _hoist(start, defines, source):
    """Give every inline element pattern a fresh named definition.

    Every node of the start pattern and of each definition is visited here,
    in order and before anything is inlined, so an undefined reference is
    reported here."""
    used = set(defines)
    new_defines = {}

    def alloc(element_name):
        base = element_name.split(":")[-1]
        name = base
        serial = 1
        while name in used:
            serial += 1
            name = "%s.%d" % (base, serial)
        used.add(name)
        return name

    def tx(p, kids):
        if isinstance(p, ast.Ref) and p.name not in defines:
            raise GrammarError.at("reference to undefined pattern %r" % p.name, source, p)
        p = _rebuild(p, kids)
        if not isinstance(p, ast.Element):
            return p
        fresh = alloc(p.name)
        new_defines[fresh] = p
        return ast.Ref(fresh, loc=p.loc)

    start2 = ast.fold(start, tx)
    out = {}
    for name, body in defines.items():
        if isinstance(body, ast.Element):  # the body itself stays
            out[name] = _rebuild(body, (ast.fold(body.content, tx),))
        else:
            out[name] = ast.fold(body, tx)
    out.update(new_defines)
    return start2, out


def _rebuild(p, kids):
    """A node like p with the children kids; a leaf is p itself."""
    if isinstance(p, (ast.Choice, ast.Group)):
        return type(p)(*kids, loc=p.loc)
    if isinstance(p, ast.OneOrMore):
        return ast.OneOrMore(*kids, loc=p.loc)
    if isinstance(p, (ast.Attribute, ast.Element)):
        return type(p)(p.name, *kids, ns=p.ns, loc=p.loc)
    return p


def _inline(start, defines, source):
    """Substitute non-element definitions into their use sites.

    A cycle among such definitions means recursion that never crosses an
    element, which would admit infinitely many documents of one size.
    They are resolved in the postorder of ast.depth_first, so each after
    the definitions it uses, and a long chain of them does not recurse."""
    element_defs = {n: b for n, b in defines.items() if isinstance(b, ast.Element)}
    other_defs = {n: b for n, b in defines.items() if n not in element_defs}
    if not other_defs:
        return start, element_defs

    def refs(p):
        return (
            n.name for n in ast.iter_nodes(p)
            if isinstance(n, ast.Ref) and n.name in other_defs
        )

    def subst(p, kids):
        if isinstance(p, ast.Ref):
            return resolved.get(p.name, p)
        return _rebuild(p, kids)

    roots = (n for p in (start, *element_defs.values()) for n in refs(p))
    _, order, cycle = ast.depth_first(roots, lambda name: refs(other_defs[name]))
    if cycle:
        raise GrammarError.at(
            "recursive definition without an intervening element: %s"
            % " -> ".join(cycle), source, other_defs[cycle[-1]],
        )
    resolved = {}
    for name in order:
        resolved[name] = ast.fold(other_defs[name], subst)
    return ast.fold(start, subst), {
        name: ast.fold(body, subst) for name, body in element_defs.items()
    }


def _prune(start, defines):
    keep = set(ast.reachable(start, defines))
    return {n: defines[n] for n in defines if n in keep}
