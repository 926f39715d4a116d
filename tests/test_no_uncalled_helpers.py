"""Every function and class in the package is referred to somewhere.

A helper that nothing names any more is dead code.  This lists each
function, method and class defined in src/boltzxml/*.py (dunders aside)
and fails, naming file:line, for any that no name, attribute access or
import in src/, tests/, perfbench/ or demos/ refers to.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boltzxml"
SEARCHED = ("src", "tests", "perfbench", "demos")


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referred_names():
    names = set()
    files = (p for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py")))
    for _, tree in _trees(files):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_function_and_class_is_referred_to():
    referred = _referred_names()
    unreferred = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in referred:
                unreferred.append(
                    "%s:%d %s" % (path.relative_to(ROOT), node.lineno, node.name)
                )
    assert not unreferred, "nothing refers to: " + ", ".join(unreferred)
