"""Every module of the package uses every name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import maxvariety

_PACKAGE = Path(maxvariety.__file__).parent
# ``cli.tyler`` and ``denoise.inv_sqrt`` are bound for the benchmark's
# trace hooks, not for the modules themselves
_KEPT = {("cli.py", "tyler"), ("denoise.py", "inv_sqrt")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used and (path.name, name) not in _KEPT]


@pytest.mark.parametrize("path", sorted(
    p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []
