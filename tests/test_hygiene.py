"""Source hygiene: no module imports a name it never uses.

No linter ships with the project, so this parses the package, the tests
and the demos with `ast`.  A name counts as used when it is read
anywhere in its file (scopes are not told apart) or is listed in the
module's `__all__`.  Quoted annotations are not read: with
`from __future__ import annotations` none needs quoting.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(p for d in ("src/radfiner", "tests", "demos")
               for p in (ROOT / d).rglob("*.py"))


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
