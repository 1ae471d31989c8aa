"""The package holds the program, and each fact has one owner.

Both checks read the source of ``src/normsim`` with ``ast``.  No module
reads a sibling's private (underscore) name, parenthesised imports
included.  Every name normsim exports is used by another module of the
package or is written in README.md; reference implementations only the
tests use belong in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

import normsim

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "normsim").glob("*.py"))


def parsed(path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def test_no_module_imports_a_siblings_private_name():
    bad = [
        f"{path.name}:{node.lineno}: from .{node.module or ''} import {alias.name}"
        for path in MODULES
        for node in parsed(path)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, bad


def test_every_export_has_a_caller_or_is_documented():
    used = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in parsed(path):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    readme = (ROOT / "README.md").read_text()
    bad = [
        f"normsim.{name}: no caller in src/normsim and not in README.md"
        for name in normsim.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert not bad, bad
