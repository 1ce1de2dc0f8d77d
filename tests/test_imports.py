"""Every module of the package and of the test suite uses every name it
imports.  ``__init__.py`` files are exempt: their imports are re-exports."""

from __future__ import annotations

import ast
from pathlib import Path

import packcrit

PACKAGE = Path(packcrit.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    """The names ``source`` imports (``__future__`` features aside) that it
    never reads: no ``Name`` node and no entry of ``__all__`` refers to
    them.  ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert any(p.name == "cli.py" for p in modules) and any(p.name == "oracles.py" for p in modules)
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p.read_text()) for p in modules if p.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_scan_catches_unused_imports():
    assert _unused_imports("import os") == ["line 1: os"]
    assert _unused_imports("from a import b, c as d\nb()") == ["line 1: d"]
    assert _unused_imports("import a.b\ndef f():\n    from x import y\n    return a.b") == ["line 3: y"]
    assert not _unused_imports("from __future__ import annotations\nfrom t import T\nx: T = 1")
    assert not _unused_imports("from m import f\n__all__ = ['f']")
