"""Every module of the package uses each name it imports.

No linter runs on the code, so this stands in for an unused-import
check.  The package __init__ re-exports names it does not use itself,
and "from __future__ import annotations" binds no name, so both are
exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "capedit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Each name source imports, at any depth, and never reads, as
    "name (line n)"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_finds_a_name_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "def f(x: b) -> None:\n"
        "    import re\n"
        "    return json.dumps(os.path.sep)\n"
    )
    assert unused_imports(source) == ["d (line 4)", "re (line 6)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
