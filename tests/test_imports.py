"""Every name a vgstore module imports is read in that module."""

import ast
from pathlib import Path

import pytest

import vgstore

# the package's __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in Path(vgstore.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names source imports, outside __future__, that it never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unread_imports_finds_an_unread_name_and_only_it():
    source = "from __future__ import annotations\nimport os, re\nfrom a.b import c as d, e\nre.x(d)\n"
    assert unread_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
