"""Every function, class and private constant in the package is read
somewhere.

A helper that nothing names any more is dead code, and so is a private
constant that nothing reads.  This lists each function, method and class
defined in src/boltzxml/*.py (dunders aside), and each private
module-level constant (a name bound by `_NAME = ...` at the top of a
module, tuple targets included), and fails, naming file:line, for any
that no name read, attribute read or import in src/, tests/, perfbench/
or demos/ refers to.  Binding a name is not reading it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boltzxml"
SEARCHED = ("src", "tests", "perfbench", "demos")


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names():
    names = set()
    files = (p for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py")))
    for _, tree in _trees(files):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unread(kinds):
    """file:line name of each definition that kinds(tree) yields as
    (node, name) and that nothing reads."""
    read = _read_names()
    unread = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node, name in kinds(tree):
            if not _is_dunder(name) and name not in read:
                unread.append(
                    "%s:%d %s" % (path.relative_to(ROOT), node.lineno, name)
                )
    return unread


def _functions_and_classes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name


def _private_constants(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_"):
                    yield node, name.id


def test_every_function_and_class_is_referred_to():
    unread = _unread(_functions_and_classes)
    assert not unread, "nothing refers to: " + ", ".join(unread)


def test_every_private_constant_is_read():
    unread = _unread(_private_constants)
    assert not unread, "nothing reads: " + ", ".join(unread)
