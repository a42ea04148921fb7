"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddt7"


def _unused_imports(source: str) -> list:
    """(line, name) for each import binding that no name in the module reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_unused_import_check_finds_one():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import sys\nfrom math import pi as tau, sqrt\nsys.exit(tau)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "sqrt")]


def test_no_module_binds_an_import_it_never_uses():
    """``__init__.py`` re-exports by importing, so it is left out."""
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def _private_names(source: str) -> dict:
    """{name: line} for each private name the module binds at its top level:
    a def, a class or an assignment target starting with one underscore."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, node.lineno)
    return out


def _names_read(source: str) -> set:
    """Every name a module reads: loaded names, attribute names, and names
    imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: dict) -> list:
    """(module, line, name) for each top-level private name that no module
    of ``sources`` ({module: source}) reads."""
    read = set().union(*(_names_read(s) for s in sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for name, line in _private_names(source).items()
                  if name not in read)


def test_the_unread_private_name_check_finds_one():
    sources = {
        "a": ("_USED = 1\n_orphan, _paired = 2, 3\n\n"
              "def _helper():\n    return _USED\n\n"
              "class _Unused:\n    _attr = 0\n"),
        "b": "from a import _paired\nimport a\na._helper()\n",
    }
    assert _unread_private_names(sources) == [("a", 2, "_orphan"),
                                             ("a", 7, "_Unused")]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def _unbound_exports(source: str) -> list:
    """Each name of the module's ``__all__`` that its top level does not
    bind by a def, a class, an assignment or an import."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [e.value for e in node.value.elts]
    return [name for name in exported if name not in bound]


def test_the_unbound_export_check_finds_one():
    source = ("from math import pi as tau\nimport os.path\n"
              "__all__ = ['tau', 'os', 'f', 'C', 'X', 'gone']\n"
              "X: int = 1\n\ndef f():\n    gone = 2\n\nclass C:\n    pass\n")
    assert _unbound_exports(source) == ["gone"]


def test_every_exported_name_is_bound_in_its_module():
    """A stale ``__all__`` entry breaks only ``from module import *``."""
    stale = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _unbound_exports(path.read_text())]
    assert stale == []
