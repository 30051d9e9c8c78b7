"""Every name a package module imports is used in that module, only the
one write step opens a file for writing, and only the module of the read
and write steps imports ``csv``.

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


def _opens_for_writing(call):
    """Whether ``call`` is an ``open(path, mode)``, ``io.open`` or
    ``os.fdopen`` whose mode, its second argument, is not a read-only
    literal."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in ("open", "fdopen"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writers(source):
    """The qualified name of the function, or ``<module>``, around each call
    in ``source`` that opens a file for writing."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_write_step_opens_files_for_writing():
    # every output goes through errors.write_text (UTF-8, encoded before
    # the file is opened); the LLM cache appends each answer to its file in
    # one write on an O_APPEND descriptor, which write_text does not make.
    # WAVs are written by scipy.io.wavfile, which this scan does not see.
    # cli.main opens the null device, which is no output: it takes what a
    # command had left to print when the reader of stdout stopped reading.
    writers = {(p.name, where) for p in PACKAGE.glob("*.py")
               for where in file_writers(p.read_text(encoding="utf-8"))}
    assert writers == {("errors.py", "write_text"), ("reasoning.py", "HttpLlmClient.complete"),
                       ("cli.py", "main")}


@pytest.mark.parametrize("source, writers", [
    ("open(p)\n", []),
    ("open(p, 'rb')\n", []),
    ("open(p, mode='r', encoding='utf-8')\n", []),
    ("open(p, 'w')\n", ["<module>"]),
    ("def f(p):\n    with open(p, mode='ab') as fh:\n        fh.write(b'')\n", ["f"]),
    ("class C:\n    def m(self, fd):\n        return os.fdopen(fd, 'w')\n", ["C.m"]),
    ("def f(p, mode):\n    return io.open(p, mode)\n", ["f"]),
    ("def f(p):\n    return open(p, 'r+b')\n", ["f"]),
])
def test_scan_finds_file_writers(source, writers):
    assert file_writers(source) == writers


def imported_modules(source):
    """The top-level name of every module that ``source`` imports by an
    absolute import, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_only_the_read_and_write_steps_import_csv():
    # errors.read_csv reads and checks every CSV input, and errors.write_csv
    # writes every CSV output
    importers = {p.name for p in PACKAGE.glob("*.py")
                 if "csv" in imported_modules(p.read_text(encoding="utf-8"))}
    assert importers == {"errors.py"}


@pytest.mark.parametrize("source, modules", [
    ("import csv\n", {"csv"}),
    ("import csv as table\n", {"csv"}),
    ("from csv import reader\n", {"csv"}),
    ("def f():\n    import csv\n", {"csv"}),
    ("import os.path, json\n", {"os", "json"}),
    ("from . import csv\n", set()),
    ("from .errors import read_csv\n", set()),
])
def test_scan_finds_imported_modules(source, modules):
    assert imported_modules(source) == modules
