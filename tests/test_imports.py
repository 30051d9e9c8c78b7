"""Every name a package module imports is used in that module.

No linter runs with the suite, so this walks each module's syntax tree
with the standard library's ``ast``: an ``import a.b`` needs a reference
that starts with ``a.b``, and any other imported name a reference to it.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "serhybrid"


def _dotted(node):
    """``a.b.c`` for a Name or a chain of Attributes on one, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source):
    """The names ``source`` imports and never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names]
    used = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))} - {None}
    return [name for name in imported
            if not any(ref == name or ref.startswith(name + ".") for ref in used)]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import json\n", ["json"]),
    ("import json\njson.dumps(1)\n", []),
    ("import urllib.parse\nimport urllib.request\nurllib.parse.quote('a')\n",
     ["urllib.request"]),
    ("from dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int = 0\n",
     ["field"]),
    ("import numpy as np\nnp.zeros(1)\n", []),
])
def test_scan_finds_unused_names(source, unused):
    assert unused_imports(source) == unused
