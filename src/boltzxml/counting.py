"""Exact coefficient extraction and exhaustive document enumeration.

count_coefficients reads the equation system's series size by size, in
arbitrary-precision integers.  Every class series and every product of
classes is a plain list; products are built as chains of pairwise
convolutions shared across monomials by common prefix, a power a^e as
a^(e // 2) * a^(e - e // 2), so the total cost is O(products * log(exponent)
* cutoff^2) big-int operations.  system.same_size_order puts the
lists in the order of their reads at one size, which check_well_founded has
proved acyclic, so one pass settles each size.

enumerate_documents lists every derivation of a given size, producing
documents with canonical leaf values; the list length equals the counting
coefficient for that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import ast
from .datatypes import canonical_value
from .errors import EnumerationBoundError
from .serialize import DocNode
from .system import check_well_founded, compile_grammar, same_size_order

__all__ = ["CountingTable", "count_coefficients", "enumerate_documents"]


@dataclass
class CountingTable:
    """Coefficient table: counts[cls][n] objects of size n in class cls."""

    counts: dict
    cutoff: int
    start: str

    def coefficient(self, n, cls=None):
        if not 0 <= n <= self.cutoff:
            raise ValueError("size %d outside table range 0..%d" % (n, self.cutoff))
        return self.counts[cls or self.start][n]

    def series(self, cls=None):
        return list(self.counts[cls or self.start])


def count_coefficients(system, cutoff):
    """Exact counts of objects of size 0..cutoff for every class of a
    system that check_well_founded accepts."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    const = check_well_founded(system)
    # a node is a monomial's powers: ((name, 1),) for a class, a longer
    # tuple for a prefix product, ((name, e),) for a power, made of halves;
    # reads[node] are the nodes whose size-n terms its own size-n term is
    # made from; plans[node] are a class's monomials as (coeff, xexp,
    # powers) and splits[node] a product's left and right factors
    reads, plans, splits = {}, {}, {}
    for name in system.classes:
        plan = plans[((name, 1),)] = [
            (mon.coeff, mon.xexp, mon.powers) for mon in system.equations[name]
        ]
        reads[((name, 1),)] = [powers for _, xexp, powers in plan if powers and not xexp]
    todo = [powers for plan in plans.values() for _, _, powers in plan]
    while todo:
        node = todo.pop()
        if node in reads or not node:
            continue
        if len(node) > 1:
            left, right = node[:-1], node[-1:]
        else:  # a^e = a^(e // 2) * a^(e - e // 2)
            (name, exp), = node
            left, right = ((name, exp // 2),), ((name, exp - exp // 2),)
        splits[node] = left, right
        # left * right pairs each side's size n with the other's 0
        reads[node] = [
            side for side, other in ((left, right), (right, left))
            if all(const[c] for c, _ in other)
        ]
        todo += left, right
    series = {node: [] for node in reads}
    lists = list(series.values())
    series[()] = [1] + [0] * cutoff  # a monomial with no class
    steps = [  # (series, class plan, left and right factors' series)
        (series[node], [(c, x, series[f]) for c, x, f in plans[node]], None, None)
        if node in plans
        else (series[node], None, *(series[f] for f in splits[node]))
        for node in same_size_order(reads)
    ]
    for n in range(cutoff + 1):
        for s in lists:
            s.append(0)
        for s, plan, left, right in steps:
            if plan is None:
                # every list holds sizes 0..n, so this pairs j with n - j
                s[n] = sum(map(mul, left, reversed(right)))
            else:
                s[n] = sum(c * src[n - x] for c, x, src in plan if x <= n)
    counts = {name: series[((name, 1),)] for name in system.classes}
    return CountingTable(counts, cutoff, system.start)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _enum_value(p, kids):
    """Visit of the fold from an attribute content pattern to all the
    canonical string values it can take, kids being its children's."""
    if isinstance(p, ast.Text):
        return (canonical_value("string"),)
    if isinstance(p, ast.Data):
        return (canonical_value(p.type),)
    if isinstance(p, ast.Value):
        return (p.literal,)
    if isinstance(p, ast.Empty):
        return ("",)
    if isinstance(p, ast.NotAllowed):
        return ()
    if isinstance(p, ast.Choice):
        return kids[0] + kids[1]
    if isinstance(p, ast.Group):
        return tuple(a + b for a in kids[0] for b in kids[1])
    raise ValueError("unsupported pattern inside attribute: %s" % type(p).__name__)


def enumerate_documents(grammar, size, *, bound=10000, system=None, table=None):
    """Every document of exactly the given size, as DocNode trees.

    The result length equals the size-n counting coefficient of the start
    class (each derivation is listed once).  Raises EnumerationBoundError
    when that coefficient exceeds the bound."""
    if system is None:
        system = compile_grammar(grammar)
    if table is None:
        table = count_coefficients(system, size)
    total = table.coefficient(size)
    if total > bound:
        raise EnumerationBoundError(total, bound)

    memo = {}

    def enum(pattern, budget):
        key = (id(pattern), budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        result = compute(pattern, budget)
        memo[key] = result
        return result

    def compute(p, budget):
        if isinstance(p, ast.Empty):
            return ((),) if budget == 0 else ()
        if isinstance(p, ast.NotAllowed):
            return ()
        if isinstance(p, (ast.Text, ast.Data, ast.Value)):
            if budget != 0:
                return ()
            if isinstance(p, ast.Text):
                text = canonical_value("string")
            elif isinstance(p, ast.Data):
                text = canonical_value(p.type)
            else:
                text = p.literal
            return ((("t", text),),)
        if isinstance(p, ast.Attribute):
            if budget != 1:
                return ()
            return tuple((("a", p.name, v),) for v in ast.fold(p.content, _enum_value))
        if isinstance(p, ast.Ref):
            return enum(grammar.defines[p.name], budget)
        if isinstance(p, ast.Element):
            if budget < 1:
                return ()
            docs = []
            for frag in enum(p.content, budget - 1):
                attrs = tuple((item[1], item[2]) for item in frag if item[0] == "a")
                children = tuple(
                    item[1] for item in frag if item[0] in ("e", "t")
                )
                docs.append((("e", DocNode(p.name, attrs, children)),))
            return tuple(docs)
        if isinstance(p, ast.Choice):
            return enum(p.left, budget) + enum(p.right, budget)
        if isinstance(p, ast.Group):
            out = []
            for k in range(budget + 1):
                lefts = enum(p.left, k)
                if not lefts:
                    continue
                rights = enum(p.right, budget - k)
                for a in lefts:
                    for b in rights:
                        out.append(a + b)
            return tuple(out)
        if isinstance(p, ast.OneOrMore):
            # a first item of size j, then a repetition of the rest; one
            # item taking the whole budget comes last
            out = tuple(
                a + rest
                for j in range(1, budget)
                for a in enum(p.child, j)
                for rest in enum(p, budget - j)
            )
            return out + enum(p.child, budget) if budget else ()
        raise ValueError("unexpected pattern %s" % type(p).__name__)

    docs = []
    for frag in enum(grammar.start, size):
        assert len(frag) == 1 and frag[0][0] == "e"
        docs.append(frag[0][1])
    return docs
