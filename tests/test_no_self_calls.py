"""No function in the package calls itself, but those allowed below.

A function that calls itself recurses as deep as its input nests, and
Python stops near 1000 frames, so a wide or deep content model would
raise RecursionError.  Pattern walks go through ast.fold or a loop with
an explicit stack instead.  This lists each function and method defined
in src/boltzxml/*.py that calls itself by name, as f(...) or
self.f(...), and fails, naming file:line, for any not in ALLOWED; each
entry says why its depth is bounded or why it may recurse.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boltzxml"

ALLOWED = {
    "_Builder.grammar_body": "recurses once per div nested in the schema file",
    "_enum_value": "part of enumerate_documents, the recursive reference "
    "that the tests compare counts against",
    "events_from_doc": "recurses once per level of a DocNode, which "
    "enumerate_documents builds only for small sizes",
}


def _calls_itself(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == function.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == function.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                return True
    return False


def _self_calling():
    """(file:line, name) of each function that calls itself, a method's
    name qualified by its class's."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owners = {
            id(child): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node):
                owner = owners.get(id(node))
                name = "%s.%s" % (owner, node.name) if owner else node.name
                found.append(("%s:%d" % (path.name, node.lineno), name))
    return found


def test_no_function_calls_itself_unless_allowed():
    unexpected = [
        "%s %s" % (where, name) for where, name in _self_calling() if name not in ALLOWED
    ]
    assert not unexpected, "calls itself: " + ", ".join(unexpected)


def test_every_allowed_function_still_calls_itself():
    names = {name for _, name in _self_calling()}
    assert names == set(ALLOWED)
