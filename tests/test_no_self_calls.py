"""No function in the package recurses, but those allowed below.

A function that calls itself, directly or through others, recurses as
deep as its input nests, and Python stops near 1000 frames, so a wide or
deep content model would raise RecursionError.  Pattern walks go through
ast.fold or a loop with an explicit stack instead.  This builds a
name-level call graph of each module in src/boltzxml: a function or
method calls g when its body holds g(...) or self.g(...), g being defined
in that module.  It fails, naming file:line, for any function on a cycle
of that graph that is not in ALLOWED; each entry says why its depth is
bounded or why it may recurse.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boltzxml"

_COUNTING_REFERENCE = (
    "part of enumerate_documents, the recursive reference that the tests "
    "compare counts against"
)

ALLOWED = {
    "enum": _COUNTING_REFERENCE,
    "compute": _COUNTING_REFERENCE,
}


def _call_graph(tree):
    """{name: (line, names it calls)} for each function in a module, a
    method's name qualified by its class's, a nested function's its own."""
    owners = {
        id(child): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body
    }
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    names = {}
    for function in functions:
        owner = owners.get(id(function))
        names[id(function)] = (
            "%s.%s" % (owner, function.name) if owner else function.name
        )
    defined = set(names.values())
    graph = {}
    for function in functions:
        owner = owners.get(id(function))
        calls = set()
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in defined:
                calls.add(f.id)
            elif (
                owner
                and isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
                and "%s.%s" % (owner, f.attr) in defined
            ):
                calls.add("%s.%s" % (owner, f.attr))
        # functions of one name, nested in different ones, share a node
        entry = graph.setdefault(names[id(function)], (function.lineno, set()))
        entry[1].update(calls)
    return graph


def _recursive():
    """(file:line, name) of each function that reaches itself by calls."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph = _call_graph(tree)
        for name, (line, calls) in graph.items():
            seen, stack = set(), list(calls)
            while stack:
                callee = stack.pop()
                if callee not in seen:
                    seen.add(callee)
                    stack.extend(graph[callee][1])
            if name in seen:
                found.append(("%s:%d" % (path.name, line), name))
    return found


def test_no_function_calls_itself_unless_allowed():
    unexpected = [
        "%s %s" % (where, name) for where, name in _recursive() if name not in ALLOWED
    ]
    assert not unexpected, "calls itself: " + ", ".join(unexpected)


def test_every_allowed_function_still_calls_itself():
    names = {name for _, name in _recursive()}
    assert names == set(ALLOWED)


def test_mutual_recursion_is_found():
    tree = ast.parse(
        "def a(n):\n    return b(n)\n"
        "def b(n):\n    return a(n - 1) if n else 0\n"
        "class K:\n"
        "    def f(self, n):\n        return self.g(n)\n"
        "    def g(self, n):\n        return self.f(n)\n"
        "def leaf(n):\n    return n\n"
    )
    graph = _call_graph(tree)
    assert graph["a"][1] == {"b"} and graph["b"][1] == {"a"}
    assert graph["K.f"][1] == {"K.g"} and graph["K.g"][1] == {"K.f"}
    assert graph["leaf"][1] == set()
