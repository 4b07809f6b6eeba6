"""Every ``raise`` in the package re-raises or names one of the five
concrete error classes of ``maxvariety.errors``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import maxvariety

_PACKAGE = Path(maxvariety.__file__).parent
_CONCRETE = {"ParameterError", "UsageError", "IngestionError",
             "DegenerateDataError", "ConvergenceError"}


def _stray_raises(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in _CONCRETE):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(exc)}")
    return stray


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_raise_names_a_concrete_error_class(path):
    assert _stray_raises(path) == []
