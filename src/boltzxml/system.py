"""Polynomial equation systems over counting generating functions.

A grammar compiles to one equation per combinatorial class: one class per
element definition, one per repetition node, plus a synthetic start class
when the start pattern is a choice.  Each equation is a polynomial with
nonnegative integer coefficients in the size variable x and the class
variables.  Size counts elements and attributes, each contributing one
factor of x; text, data and value leaves contribute none.

Translation rules: choice adds, group multiplies, an element definition e
with content pattern p yields e = x * poly(p), an attribute multiplies by
x, and oneOrMore over p introduces a fresh class s = poly(p) + poly(p) * s.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass

from . import ast
from .errors import CompileError, IllFoundedSystemError, SystemFormatError

__all__ = [
    "Monomial",
    "GfSystem",
    "compile_grammar",
    "least_exponents",
    "load_system",
    "save_system",
]

_FORMAT_HEADER = "boltzxml-system 1"


@dataclass(frozen=True)
class Monomial:
    """coeff * x**xexp * product(class**exp for class, exp in powers)."""

    coeff: int
    xexp: int
    powers: tuple  # ((class_name, exponent), ...) sorted by class name

    def format(self):
        parts = [str(self.coeff), str(self.xexp)]
        parts.extend("%s:%d" % (name, exp) for name, exp in self.powers)
        return " ".join(parts)


class GfSystem:
    """An ordered set of polynomial class equations with a start class."""

    def __init__(self, classes, equations, start, grammar_digest=None):
        self.classes = list(classes)
        self.equations = {name: tuple(equations[name]) for name in self.classes}
        self.start = start
        self.grammar_digest = grammar_digest
        self._digest = None  # computed on first use; a system is never mutated
        if start not in self.equations:
            raise SystemFormatError("start class %r has no equation" % start)

    @property
    def n_equations(self):
        return len(self.classes)

    @property
    def n_monomials(self):
        return sum(len(eq) for eq in self.equations.values())

    def __eq__(self, other):
        if not isinstance(other, GfSystem):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.equations == other.equations
            and self.start == other.start
        )

    def to_text(self):
        lines = [
            _FORMAT_HEADER,
            "grammar-digest %s" % (self.grammar_digest or "none"),
            "classes %d" % len(self.classes),
            "start %s" % self.start,
        ]
        for name in self.classes:
            eq = self.equations[name]
            body = " + ".join(m.format() for m in eq) if eq else "0"
            lines.append("eq %s = %s" % (name, body))
        return "\n".join(lines) + "\n"

    def digest(self):
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()
        return self._digest

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


# ---------------------------------------------------------------------------
# grammar -> system

_ONE = (0, ())


def _p_add(a, b):
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + coeff
    return out


def _p_mul(a, b):
    out = {}
    for (xa, pa), ca in a.items():
        for (xb, pb), cb in b.items():
            powers = dict(pa)
            for name, exp in pb:
                powers[name] = powers.get(name, 0) + exp
            key = (xa + xb, tuple(sorted(powers.items())))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _p_shift(a):
    return {(x + 1, p): c for (x, p), c in a.items()}


def _canon(poly):
    return tuple(sorted(poly.items()))


class _Compiler:
    def __init__(self, grammar):
        self.grammar = grammar
        self.classes = []
        self.equations = {}
        self.seq_cache = {}
        self.seq_serial = 0

    def poly(self, p, kids):
        """Visit of the fold from a pattern to its polynomial, kids being
        its children's polynomials."""
        if isinstance(p, (ast.Empty, ast.Text, ast.Data, ast.Value)):
            return {_ONE: 1}
        if isinstance(p, ast.NotAllowed):
            return {}
        if isinstance(p, ast.Ref):
            return {(0, ((p.name, 1),)): 1}
        if isinstance(p, ast.Attribute):
            return _p_shift(kids[0])
        if isinstance(p, ast.Choice):
            return _p_add(*kids)
        if isinstance(p, ast.Group):
            return _p_mul(*kids)
        if isinstance(p, ast.OneOrMore):
            return self.seq_class(p, kids[0])
        self.fail("unexpected pattern node %s" % type(p).__name__, p)

    def fail(self, message, node):
        raise CompileError.at(message, self.grammar.source, node)

    def seq_class(self, node, pp):
        """The class of a oneOrMore node whose child has the polynomial pp."""
        # constant term: class variables all have zero constant term, so
        # only the bare (x^0, no classes) monomial contributes
        if pp.get(_ONE, 0):
            self.fail(
                "oneOrMore applied to a pattern that can match empty "
                "content, which would allow unbounded repetition at no size",
                node,
            )
        key = _canon(pp)
        name = self.seq_cache.get(key)
        if name is None:
            self.seq_serial += 1
            name = "seq:%d" % self.seq_serial
            self.seq_cache[key] = name
            self.classes.append(name)
            self_term = {(0, ((name, 1),)): 1}
            self.equations[name] = _p_add(pp, _p_mul(pp, self_term))
        return {(0, ((name, 1),)): 1}

    def run(self, grammar_digest=None):
        g = self.grammar
        define_order = ast.reachable(g.start, g.defines)

        start_name = None
        if isinstance(g.start, ast.Ref):
            start_name = g.start.name
        else:
            start_name = "start"
            serial = 1
            while start_name in g.defines:
                serial += 1
                start_name = "start.%d" % serial
            self.classes.append(start_name)

        self.classes.extend(define_order)
        if start_name not in define_order:
            self.equations[start_name] = ast.fold(g.start, self.poly)
        for name in define_order:
            body = g.defines[name]
            self.equations[name] = _p_shift(ast.fold(body.content, self.poly))

        # drop the classes whose generating function is identically zero
        equations = {
            name: tuple(
                Monomial(coeff, xexp, powers)
                for (xexp, powers), coeff in sorted(self.equations[name].items())
            )
            for name in self.classes
        }
        least = least_exponents(self.classes, equations)
        if least[start_name] == math.inf:
            self.fail("the start pattern matches no documents", g.start)
        classes = [name for name in self.classes if least[name] < math.inf]
        equations = {
            name: tuple(
                mon for mon in equations[name]
                if all(least[cls] < math.inf for cls, _ in mon.powers)
            )
            for name in classes
        }
        system = GfSystem(classes, equations, start_name, grammar_digest=grammar_digest)
        check_well_founded(system)
        return system


def compile_grammar(grammar, grammar_digest=None):
    """Compile a normalized grammar into its generating-function system."""
    return _Compiler(grammar).run(grammar_digest=grammar_digest)


def least_exponents(classes, equations):
    """The least power of x in each class's series, inf for a class whose
    series is zero, equations[name] being its monomials.

    Knuth's generalization of Dijkstra's algorithm (1977): a monomial's
    least power is known once its classes' are, and is never below
    theirs, so the least one known settles its class, and each monomial
    is read once however the classes are ordered."""
    least = {}
    users = {name: [] for name in classes}  # class -> (monomial, exponent)
    heap = []
    for name in classes:
        for mon in equations[name]:
            # [least power so far, classes not settled yet, class]
            entry = [mon.xexp, len(mon.powers), name]
            for cls, exp in mon.powers:
                users[cls].append((entry, exp))
            if not mon.powers:
                heapq.heappush(heap, (mon.xexp, name))
    while heap:
        size, name = heapq.heappop(heap)
        if name in least:
            continue
        least[name] = size
        for entry, exp in users[name]:
            entry[0] += exp * size
            entry[1] -= 1
            if not entry[1]:
                heapq.heappush(heap, (entry[0], entry[2]))
    return {name: least.get(name, math.inf) for name in classes}


# ---------------------------------------------------------------------------
# well-foundedness

_CONST_CAP = 1 << 63


def same_size_order(reads):
    """The nodes of reads in an order that puts each after reads[node],
    the nodes whose size-n terms its own size-n term reads: the postorder
    of ast.depth_first from each node in turn.  A cycle is recursion at no
    size and raises IllFoundedSystemError."""
    _, order, cycle = ast.depth_first(reads, reads.__getitem__)
    if cycle:
        raise IllFoundedSystemError(
            "zero-size recursion cycle: %s" % " -> ".join(map(str, cycle))
        )
    return order


def check_well_founded(system):
    """Verify the system defines finitely many objects of every size, and
    return each class's constant term, its value at x = 0.

    Class a reads class b at size 0 when a monomial of a with no x has a
    nonzero derivative in b at 0: every power in it but one of b has a
    nonzero constant term, one whose least power of x is 0.  These reads
    are acyclic in a well-founded system (Pivoteau, Salvy & Soria, JCTA
    2012), and one pass in their order settles the constants."""
    classes = system.classes
    at_zero = {  # the monomials with no x, the only ones read at size 0
        name: [mon for mon in system.equations[name] if not mon.xexp]
        for name in classes
    }
    least = least_exponents(classes, at_zero)
    zero = {name for name in classes if least[name]}  # zero constant term
    reads = {name: set() for name in classes}
    for name in classes:
        for mon in at_zero[name]:
            zeros = sum(exp for cls, exp in mon.powers if cls in zero)
            reads[name].update(cls for cls, _ in mon.powers if zeros == (cls in zero))
    const = dict.fromkeys(classes, 0)
    for name in same_size_order({name: sorted(r) for name, r in reads.items()}):
        # a monomial's factors are settled by now, or one has a zero
        # constant; a factor of 2 or more to a power of 64 or more passes
        # the cap, so that power is never raised
        for mon in at_zero[name]:
            factors = [(const[cls], exp) for cls, exp in mon.powers]
            if all(c for c, _ in factors):
                if any(c > 1 and exp >= 64 for c, exp in factors):
                    const[name] = _CONST_CAP + 1
                    break
                const[name] += mon.coeff * math.prod(c**exp for c, exp in factors)
        if const[name] > _CONST_CAP:
            raise IllFoundedSystemError(
                "constant terms grow without bound (class %r)" % name
            )
    return const


# ---------------------------------------------------------------------------
# file format

def save_system(system, path):
    system.save(path)


def _parse_monomial(token, lineno):
    parts = token.split()
    if len(parts) < 2:
        raise SystemFormatError("line %d: monomial needs coeff and xexp" % lineno)
    try:
        coeff = int(parts[0])
        xexp = int(parts[1])
    except ValueError:
        raise SystemFormatError(
            "line %d: bad integer in monomial %r" % (lineno, token)
        ) from None
    if coeff < 1 or xexp < 0:
        raise SystemFormatError(
            "line %d: coefficients must be positive and exponents "
            "nonnegative" % lineno
        )
    powers = {}
    for part in parts[2:]:
        if ":" not in part:
            raise SystemFormatError(
                "line %d: class factor %r is not name:exp" % (lineno, part)
            )
        name, _, exp_s = part.rpartition(":")
        try:
            exp = int(exp_s)
        except ValueError:
            raise SystemFormatError(
                "line %d: bad exponent in %r" % (lineno, part)
            ) from None
        if exp < 1:
            raise SystemFormatError("line %d: exponents must be >= 1" % lineno)
        powers[name] = powers.get(name, 0) + exp
    return coeff, xexp, tuple(sorted(powers.items()))


def load_system(path):
    """Read a system file, validate it and re-run the well-founded check."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != _FORMAT_HEADER:
        raise SystemFormatError("%s: not a system file (missing header)" % path)

    grammar_digest = None
    declared = None
    start = None
    classes = []
    raw_eqs = {}
    for lineno, line in enumerate(lines[1:], 2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("grammar-digest "):
            value = line.split(None, 1)[1]
            grammar_digest = None if value == "none" else value
        elif line.startswith("classes "):
            try:
                declared = int(line.split(None, 1)[1])
            except ValueError:
                raise SystemFormatError("line %d: bad class count" % lineno) from None
        elif line.startswith("start "):
            start = line.split(None, 1)[1]
        elif line.startswith("eq "):
            head, _, body = line[3:].partition("=")
            name = head.strip()
            if not name:
                raise SystemFormatError("line %d: equation has no class name" % lineno)
            if name in raw_eqs:
                raise SystemFormatError(
                    "line %d: duplicate equation for %r" % (lineno, name)
                )
            classes.append(name)
            body = body.strip()
            if body == "0":
                raw_eqs[name] = []
            else:
                raw_eqs[name] = [
                    _parse_monomial(tok.strip(), lineno)
                    for tok in body.split("+")
                ]
        else:
            raise SystemFormatError("line %d: unrecognized line %r" % (lineno, line))

    if declared is None or start is None:
        raise SystemFormatError("%s: missing classes or start header line" % path)
    if declared != len(classes):
        raise SystemFormatError(
            "%s: header declares %d classes but %d equations found"
            % (path, declared, len(classes))
        )
    known = set(classes)
    if start not in known:
        raise SystemFormatError(
            "%s: start class %r has no equation" % (path, start)
        )
    equations = {}
    for name in classes:
        merged = {}
        for coeff, xexp, powers in raw_eqs[name]:
            for cls, _ in powers:
                if cls not in known:
                    raise SystemFormatError(
                        "%s: equation for %r references undeclared class %r"
                        % (path, name, cls)
                    )
            key = (xexp, powers)
            merged[key] = merged.get(key, 0) + coeff
        equations[name] = tuple(
            Monomial(coeff, xexp, powers)
            for (xexp, powers), coeff in sorted(merged.items())
        )
    system = GfSystem(classes, equations, start, grammar_digest=grammar_digest)
    check_well_founded(system)
    return system
