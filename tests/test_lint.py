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
