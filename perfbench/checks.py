"""Output checks computed apart from the program.

Documents are re-parsed with the standard-library XML parser and their
sizes recounted from the tree; window bounds are computed in exact
rational arithmetic; oracle values are checked against closed forms, or
against Phi evaluated here from the saved system file.  Only the
structural validator ``matches`` comes from the program, because the
checks must show that every document is derivable from its grammar.
The checks return lists of problems, empty when all is well.
"""

from __future__ import annotations

import datetime
import math
import re
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np

TERNARY_RHO = (2.0 / 3.0) * 2.0 ** (-1.0 / 3.0)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_URI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://[^\s/]+(/[^\s]*)?$")


def window_bounds(n, eps_text):
    """Inclusive [ceil(n(1-eps)), floor(n(1+eps))], eps given as decimal text."""
    eps = Fraction(eps_text)
    return math.ceil(n * (1 - eps)), math.floor(n * (1 + eps))


def recount(root):
    """Elements plus attributes of a parsed tree."""
    return sum(1 + len(elem.attrib) for elem in root.iter())


def check_document(data, *, size, bytes_written, bounds, grammar, matches):
    """Parse, validate and recount one sampled document.

    Returns (problems, parsed root); the root is None when parsing failed."""
    if bytes_written != len(data):
        return ["reported %d bytes, received %d" % (bytes_written, len(data))], None
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        return ["not well-formed XML: %s" % exc], None
    problems = []
    counted = recount(root)
    if counted != size:
        problems.append("reported size %d, recounted %d" % (size, counted))
    lower, upper = bounds
    if not lower <= counted <= upper:
        problems.append("size %d outside [%d, %d]" % (counted, lower, upper))
    if not matches(grammar, root):
        problems.append("document does not match the grammar")
    return problems, root


def check_ternary_tree(root):
    return [
        "%s element with %d children" % (elem.tag, len(elem))
        for elem in root.iter()
        if elem.tag != "t" or len(elem) not in (0, 3)
    ]


def check_feed_leaves(root):
    problems = []
    for elem in root.iter("pubDate"):
        text = elem.text or ""
        try:
            ok = bool(_DATE_RE.match(text)) and bool(datetime.date.fromisoformat(text))
        except ValueError:
            ok = False
        if not ok:
            problems.append("pubDate %r is not an xsd:date" % text)
    for elem in root.iter("link"):
        if not _URI_RE.match(elem.text or ""):
            problems.append("link %r is not an absolute URI" % elem.text)
    return problems


# -- oracle checks ----------------------------------------------------------


def parse_system(text):
    """Equations of a saved system file: {class: [(coeff, xexp, ((cls, e),))]}."""
    equations = {}
    for line in text.splitlines():
        if not line.startswith("eq "):
            continue
        head, _, body = line[3:].partition("=")
        monomials = []
        if body.strip() != "0":
            for token in body.split("+"):
                parts = token.split()
                powers = tuple(
                    (p.rpartition(":")[0], int(p.rpartition(":")[2])) for p in parts[2:]
                )
                monomials.append((int(parts[0]), int(parts[1]), powers))
        equations[head.strip()] = monomials
    return equations


def phi(equations, x, values):
    return {
        name: sum(
            c * x**xe * math.prod(values[cls] ** e for cls, e in powers)
            for c, xe, powers in monomials
        )
        for name, monomials in equations.items()
    }


def fixed_point_problems(equations, x, values, rtol=1e-9):
    """Y = Phi(x, Y) holds class by class, to a relative tolerance."""
    image = phi(equations, x, values)
    return [
        "class %s: Y = %.17g but Phi = %.17g" % (name, values[name], image[name])
        for name in equations
        if abs(image[name] - values[name]) > rtol * max(1.0, abs(values[name]))
    ]


def spectral_radius(equations, x, values):
    """Largest |eigenvalue| of the Jacobian dPhi/dY at (x, Y)."""
    names = list(equations)
    index = {name: i for i, name in enumerate(names)}
    jac = np.zeros((len(names), len(names)))
    for i, name in enumerate(names):
        for c, xe, powers in equations[name]:
            for k, (cls, e) in enumerate(powers):
                term = c * x**xe * e * values[cls] ** (e - 1)
                for j, (other, oe) in enumerate(powers):
                    if j != k:
                        term *= values[other] ** oe
                jac[i, index[cls]] += term
    return float(max(abs(np.linalg.eigvals(jac))))


def near_singularity_problems(equations, x, values, margin=0.01):
    """x=auto sits just below the singularity: 1 - margin < rho(J) < 1."""
    radius = spectral_radius(equations, x, values)
    if 1.0 - margin < radius < 1.0:
        return []
    return ["Jacobian spectral radius %.12g not in (%g, 1)" % (radius, 1.0 - margin)]


def ternary_oracle_problems(oracle):
    problems = []
    if not oracle.rho_lower <= TERNARY_RHO <= oracle.rho_upper:
        problems.append(
            "bracket [%.17g, %.17g] misses rho = %.17g"
            % (oracle.rho_lower, oracle.rho_upper, TERNARY_RHO)
        )
    x, t = oracle.x, oracle.values["t"]
    if abs(x * (1.0 + t**3) - t) > 1e-9 * t:
        problems.append("T = %.17g does not satisfy T = x(1 + T^3)" % t)
    return problems


def feed_closed_forms(x):
    """Class values of the bundled feed grammar at x, in closed form.

    An item is item(x) title(x) [link(x)] [pubDate(x)], so one item weighs
    I = x^2 (1 + x)^2 and a channel with its repeated items is
    x^4 / (1 - I)."""
    item = x * x * (1.0 + x) ** 2
    channel = x**4 / (1.0 - item)
    return {
        "rss": x * x * channel,
        "channel": channel,
        "title": x,
        "link": x,
        "description": x,
        "item": item,
        "pubDate": x,
        "seq:1": item / (1.0 - item),
    }


def feed_mean_size(x):
    """E[size] = x Y'(x) / Y(x) for the feed start class, in closed form."""
    item = x * x * (1.0 + x) ** 2
    return 6.0 + 2.0 * x * x * (1.0 + x) * (1.0 + 2.0 * x) / (1.0 - item)


def feed_oracle_problems(oracle):
    expected = feed_closed_forms(oracle.x)
    problems = []
    if set(expected) != set(oracle.values):
        problems.append("feed classes %s" % sorted(oracle.values))
        return problems
    for name, value in expected.items():
        if abs(oracle.values[name] - value) > 1e-9 * value:
            problems.append(
                "class %s: %.17g, closed form %.17g" % (name, oracle.values[name], value)
            )
    return problems
