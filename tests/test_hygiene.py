"""Source hygiene: no module imports a name it never uses, and the
package defines no function, class or method that nothing references.

No linter ships with the project, so this parses the package, the tests
and the demos with `ast`.  A name counts as used when it is read
anywhere in its file (scopes are not told apart) or is listed in the
module's `__all__`.  Quoted annotations are not read: with
`from __future__ import annotations` none needs quoting.

A definition in `src/radfiner` counts as referenced when its name is
read as a variable or an attribute, or appears as a string (an
`__all__` entry, a `getattr` or a patch target), anywhere in `src/`,
`tests/`, `demos/` or `perfbench/` outside the definition's own lines.
Names are not resolved to objects, so a method shares its references
with every attribute of the same name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(p for d in ("src/radfiner", "tests", "demos")
               for p in (ROOT / d).rglob("*.py"))
READERS = FILES + sorted((ROOT / "perfbench").rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, `from __future__` left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os.path\nimport json as js\nfrom typing import List, Dict\n"
                     "x: Dict[str, int] = {}\n__all__ = ['List']\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["js", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = _imported(tree)
    unused = sorted(set(imported) - _used(tree))
    assert not unused, [f"{path.name}:{imported[name]}: {name}" for name in unused]


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and classes, and the non-dunder methods of
    those classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [item for item in node.body if isinstance(item, ast.FunctionDef)
                     and not (item.name.startswith("__") and item.name.endswith("__"))]
    return defs


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every variable read, attribute and string constant."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.append((node.value, node.lineno))
    return refs


def _unreferenced(trees: dict[str, ast.Module], defining: list[str]) -> list[str]:
    refs = {key: _references(tree) for key, tree in trees.items()}
    dead = []
    for key in defining:
        for node in _definitions(trees[key]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == key and line in own)
                       for where in refs for name, line in refs[where]):
                dead.append(f"{key}:{node.lineno}: {node.name}")
    return dead


def test_checker_flags_an_unreferenced_definition():
    trees = {"lib": ast.parse("def used():\n    return 1\n\n"
                              "def recursive(n):\n    return recursive(n - 1)\n\n"
                              "class Box:\n    def __init__(self):\n        pass\n\n"
                              "    def lid(self):\n        return self.lid\n"),
             "user": ast.parse("print(used(), 'Box')\n")}
    assert _unreferenced(trees, ["lib"]) == ["lib:4: recursive", "lib:11: lid"]


def test_no_unreferenced_definitions():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in READERS}
    assert _unreferenced(trees, [k for k in trees if k.startswith("src/")]) == []
