"""Every module of the package uses each name it imports, and the
package reads each private name it defines.

No linter runs on the code, so this stands in for an unused-import
check and a dead-code check.  The package __init__ re-exports names it
does not use itself, and "from __future__ import annotations" binds no
name, so both are exempt."""

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Each private name (_x, not a dunder) that a module of sources
    defines at module level, as a function, a class or an assignment
    target, and that no module of sources reads, by name or as an
    attribute, as "module: name (line n)"."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {name} (line {line})" for module, name, line in defined if name not in read]


def test_unread_private_names_finds_a_name_left_behind():
    sources = {
        "a.py": (
            "import b\n"
            "__all__ = ['f']\n"
            "_SEEN = 1\n"
            "_LEFT: int = 2\n"
            "def _helper():\n"
            "    _LOCAL = 3\n"
            "    return _SEEN\n"
            "class _Orphan:\n"
            "    def _method(self):\n"
            "        return b._used()\n"
        ),
        "b.py": (
            "from a import _helper\n"
            "def _used():\n"
            "    return _helper()\n"
            "def _dead():\n"
            "    return None\n"
        ),
    }
    assert unread_private_names(sources) == [
        "a.py: _LEFT (line 4)", "a.py: _Orphan (line 8)", "b.py: _dead (line 4)",
    ]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
