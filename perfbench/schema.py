"""Seeded generator of schema-sized RELAX NG grammars for the benchmark.

The grammar is built so that ``solve(x="auto")`` lands just below a
square-root branch point with every class value finite there:

* every recursive definition refers, optionally, to the next one in a
  ring, so the recursive classes form one strongly connected component;
* every recursive reference sits under ``optional`` or ``zeroOrMore``, so
  each class has finite documents, and repetitions range over recursive
  classes only, so no repetition has a pole of its own below the branch
  point;
* products of recursive classes (two optional references in one content
  model, or a repetition) make the system non-linear, which is what puts
  a branch point rather than a pole at the dominant singularity.

Leaves carry typed data, and some definitions declare an attribute after
their child content, which sends the sampler down its buffered walk.
"""

from __future__ import annotations

import random

LEAF_TYPES = (
    "date", "anyURI", "integer", "decimal", "boolean", "token",
    "dateTime", "gYear", "language", "string",
)
ATTR_TYPES = ("token", "integer", "boolean", "date", "language")


def _leaf(name, dtype):
    return (
        '  <define name="%s">\n'
        '    <element name="%s"><data type="%s"/></element>\n'
        "  </define>\n" % (name, name, dtype)
    )


def generate_schema(seed, recursive, leaves):
    """RELAX NG text (XML syntax) of one generated grammar.

    The same (seed, recursive, leaves) always gives the same text."""
    rng = random.Random(seed)
    leaf_names = ["leaf%d" % j for j in range(leaves)]
    rec_names = ["node%d" % i for i in range(recursive)]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<grammar xmlns="http://relaxng.org/ns/structure/1.0">\n',
        '  <start><ref name="node0"/></start>\n',
    ]
    for j, name in enumerate(leaf_names):
        out.append(_leaf(name, LEAF_TYPES[j % len(LEAF_TYPES)]))
    for i, name in enumerate(rec_names):
        items = ['<optional><ref name="%s"/></optional>' % rec_names[(i + 1) % recursive]]
        for _ in range(rng.randrange(1, 4)):
            kind = rng.random()
            other = rec_names[rng.randrange(recursive)]
            if kind < 0.35:
                items.append('<ref name="%s"/>' % rng.choice(leaf_names))
            elif kind < 0.55:
                items.append(
                    '<optional><ref name="%s"/></optional>' % rng.choice(leaf_names)
                )
            elif kind < 0.8:
                items.append('<optional><ref name="%s"/></optional>' % other)
            else:
                items.append('<zeroOrMore><ref name="%s"/></zeroOrMore>' % other)
        rng.shuffle(items)
        attrs = []
        for a in range(rng.randrange(0, 3)):
            attr = '<attribute name="a%d"><data type="%s"/></attribute>' % (
                a, rng.choice(ATTR_TYPES),
            )
            if rng.random() < 0.5:
                attr = "<optional>%s</optional>" % attr
            attrs.append(attr)
        # attributes declared after the child content force buffering
        if attrs and rng.random() < 0.3:
            body = items + attrs
        else:
            body = attrs + items
        out.append(
            '  <define name="%s">\n    <element name="%s">\n%s    </element>\n  </define>\n'
            % (name, name, "".join("      %s\n" % b for b in body))
        )
    out.append("</grammar>\n")
    return "".join(out)
