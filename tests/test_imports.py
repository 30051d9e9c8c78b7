"""Every name a package module imports is used in that module, only the
one write step opens a file for writing, only the module of the read
and write steps imports ``csv``, and no module imports scipy when it is
imported: only the commands that run DSP load it. ``evaluate`` loads
neither scipy nor the modules that send requests or run a thread pool.

No linter runs with the suite, so this walks each module's syntax tree
with the standard library's ``ast``: an ``import a.b`` needs a reference
that starts with ``a.b``, and any other imported name a reference to it.
What a command loads is checked in a fresh interpreter.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from serhybrid import cli, corpus, hybrid

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


def _modules(node):
    """The top-level name of each module ``node`` imports by an absolute
    import, if it is an import statement."""
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.partition(".")[0]}
    return set()


def imported_modules(source):
    """The top-level name of every module that ``source`` imports by an
    absolute import, at any depth."""
    return set().union(*map(_modules, ast.walk(ast.parse(source))))


def _run_at_import(node):
    """``node`` and what it holds, but no function body: the statements
    that run when the module is imported."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_at_import(child)


def modules_imported_at_import(source):
    """The top-level name of every module that importing ``source`` imports:
    at module level, under an ``if`` or ``try`` there, or in a class body."""
    return set().union(*map(_modules, _run_at_import(ast.parse(source))))


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


def test_no_module_imports_scipy_at_import():
    # scipy is imported in the four functions that call it: load_audio,
    # save_wav, estimate_pitch and mfcc
    importers = {p.name for p in PACKAGE.glob("*.py")
                 if "scipy" in modules_imported_at_import(p.read_text(encoding="utf-8"))}
    assert importers == set()


@pytest.mark.parametrize("source, modules", [
    ("import scipy.fft\n", {"scipy"}),
    ("from scipy.io import wavfile\n", {"scipy"}),
    ("try:\n    import scipy\nexcept ImportError:\n    pass\n", {"scipy"}),
    ("if True:\n    import scipy.fft as f\n", {"scipy"}),
    ("class C:\n    import json\n", {"json"}),
    ("def f():\n    import scipy.fft\n", set()),
    ("async def f():\n    import scipy\n", set()),
    ("class C:\n    def m(self):\n        import scipy\n", set()),
    ("from .features import mfcc\n", set()),
])
def test_scan_finds_modules_imported_at_import(source, modules):
    assert modules_imported_at_import(source) == modules


def _fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package from
    this source tree; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


EVALUATE = """
import json
import sys
import serhybrid.cli
assert serhybrid.cli.main(["evaluate", "--predictions", sys.argv[1],
                           "--manifest", sys.argv[2]]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by_evaluate(tmp_path):
    """The modules a fresh interpreter holds after ``import serhybrid.cli``
    and one ``evaluate``."""
    manifest, predictions = tmp_path / "manifest.csv", tmp_path / "predictions.jsonl"
    corpus.save_manifest(manifest, [corpus.ManifestEntry(sample_id=f"s{i}", gold=label)
                                    for i, label in enumerate(("calm", "angry"))])
    hybrid.write_predictions(predictions, [hybrid.Prediction(
        sample_id=f"s{i}", label="calm", source="fallback_default", ml_evidence=None,
        prompt_version="text_baseline") for i in range(2)])
    return set(json.loads(_fresh(EVALUATE, predictions, manifest).splitlines()[-1]))


def test_evaluate_never_loads_scipy(tmp_path):
    assert sorted(m for m in _loaded_by_evaluate(tmp_path)
                  if m == "scipy" or m.startswith("scipy.")) == []


def test_evaluate_never_loads_the_network_modules(tmp_path):
    # only predict and compare send requests, and only synth, preprocess
    # and features map over the shared thread pool
    network = {"http.client", "ssl", "urllib.request", "concurrent.futures"}
    assert _loaded_by_evaluate(tmp_path) & network == set()


FEATURES = """
import sys
import threading
if sys.argv[1] == "eager":
    import scipy.fft  # loaded before the package, as a module-level import did
from serhybrid import cli, features, parallel

assert ("scipy.fft" in sys.modules) == (sys.argv[1] == "eager")
parallel.usable_cpus = lambda: 2
# each pool thread waits at its first clip for the other, so both reach
# estimate_pitch's first import of scipy.fft together
started = threading.Barrier(2)
waited = set()
pitch = features.estimate_pitch


def racing(frames, sample_rate):
    if threading.get_ident() not in waited:
        waited.add(threading.get_ident())
        started.wait(timeout=60)
    return pitch(frames, sample_rate)


features.estimate_pitch = racing
sys.setswitchinterval(1e-5)
assert cli.main(["features", "--manifest", sys.argv[2], "--out", sys.argv[3]]) == 0
assert len(waited) == 2 and "scipy.fft" in sys.modules
"""


def test_features_loads_scipy_fft_on_both_pool_threads(tmp_path):
    clips = tmp_path / "clips"
    assert cli.main(["synth", "--out-dir", str(clips), "--n-per-class", "2",
                     "--seed", "5", "--duration-s", "0.5"]) == 0
    for order in ("lazy", "eager"):
        _fresh(FEATURES, order, clips / "manifest.csv", tmp_path / f"{order}.csv")
    assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()
