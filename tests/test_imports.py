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


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and constants (one
    leading underscore) of the modules in ``sources`` that no statement of
    any of them names outside the statement that defines them: no ``Name``
    read, attribute or ``from`` import refers to them."""
    defined: dict[str, list[tuple[str, int]]] = {}
    refs: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, []).append((module, stmt.lineno))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    refs.setdefault(node.id, set()).add((module, stmt.lineno))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add((module, stmt.lineno))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        refs.setdefault(alias.name, set()).add((module, stmt.lineno))
    return [
        f"{module} line {line}: {name}"
        for name, sites in defined.items()
        for module, line in sites
        if not refs.get(name, set()) - {(module, line)}
    ]


def test_every_private_package_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "packing.py" in sources and "independence.py" in sources
    assert _unreferenced_privates(sources) == []


def test_scan_catches_unreferenced_privates():
    # A helper whose only call is its own recursion is unreferenced.
    assert _unreferenced_privates({"a": "def _f(n):\n    return _f(n - 1)\n"}) == ["a line 1: _f"]
    assert _unreferenced_privates({"a": "_X = 1\nclass _C:\n    pass\n"}) == ["a line 1: _X", "a line 2: _C"]
    assert _unreferenced_privates({"a": "def f(): pass\n__all__ = ['f']\n"}) == []
    assert not _unreferenced_privates({"a": "_X: int = 1\ndef f():\n    return _X\n"})
    assert not _unreferenced_privates({"a": "def _g(): pass\n", "b": "from .a import _g\n"})
    assert not _unreferenced_privates({"a": "def _g(): pass\n", "b": "from . import a\na._g()\n"})
