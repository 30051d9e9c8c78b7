"""Record which lines of src/serhybrid a run reaches, and list the rest.

    python tests/line_trace.py OUT SCRIPT [ARGS...]
    python tests/line_trace.py OUT -m MODULE [ARGS...]

runs SCRIPT, or MODULE as ``python -m`` does, with ARGS under
``sys.settrace`` and ``threading.settrace``, tracing only the files under
``src/serhybrid`` (put first on ``sys.path``, so the run imports this
tree's package). The lines the run executed are merged into the JSON file
OUT, ``{"src/serhybrid/<file>.py": [line, ...]}``, so several runs into one
OUT add up. Then it prints one JSON line: ``unreached``, per file the
executable lines (those that ``co_lines`` of the file's code objects
names) that no run merged into OUT reached, and ``count``, their total.
It exits with the target's exit status.

For example, the lines that the walkthrough and the three benchmark
workloads leave unreached:

    python tests/line_trace.py /tmp/lines.json tests/walkthrough.py /tmp/walk /tmp/cache
    for w in extract train compare; do
        python tests/line_trace.py /tmp/lines.json \
            perfbench/run.py --workload $w --seed 1 --seconds 1
    done

and those the tests leave: ``python tests/line_trace.py /tmp/tests.json -m pytest -q``.

What it cannot see:

- subprocesses, such as the ``features`` worker processes of perfbench's
  set-up or the processes some tests start;
- lines run while the traced program has installed a tracer of its own
  (``TestPlatt`` in tests/test_classifier.py does so around ``_fit_platt``).
"""

import functools
import json
import os
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "serhybrid")


def executable_lines(path):
    """The line numbers that ``co_lines`` gives for the code objects
    compiled from the file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_run(target):
    """Run ``target()`` under the trace; returns its exit status and the
    executed lines as {path relative to the repo: set of line numbers}."""
    hits = set()
    names = {}  # co_filename -> path relative to the repo, or None

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        rel = names.get(filename, False)
        if rel is False:
            path = os.path.abspath(filename)
            rel = names[filename] = (os.path.relpath(path, ROOT)
                                     if path.startswith(PACKAGE + os.sep) else None)
        if rel is None:
            return None
        # a function's first line holds RESUME, which no line event reports
        hits.add((filename, frame.f_lineno))
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        target()
        status = 0
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    executed = {}
    for filename, line in list(hits):  # a daemon thread may still add
        executed.setdefault(names[filename], set()).add(line)
    return status, executed


def main(argv):
    if len(argv) < 2 or (argv[1] == "-m" and len(argv) < 3):
        raise SystemExit("usage: line_trace.py OUT (SCRIPT | -m MODULE) [ARGS...]")
    out = argv[0]
    if argv[1] == "-m":
        module, args = argv[2], argv[3:]
        sys.argv = [module, *args]
        sys.path[0] = os.getcwd()
        target = functools.partial(runpy.run_module, module, run_name="__main__",
                                   alter_sys=True)
    else:
        script, args = argv[1], argv[2:]
        sys.argv = [script, *args]
        sys.path[0] = os.path.dirname(os.path.abspath(script))
        target = functools.partial(runpy.run_path, script, run_name="__main__")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status, executed = trace_run(target)
    try:
        with open(out, encoding="utf-8") as fh:
            for rel, lines in json.load(fh).items():
                executed.setdefault(rel, set()).update(lines)
    except FileNotFoundError:
        pass
    with open(out + ".tmp", "w", encoding="utf-8") as fh:
        json.dump({rel: sorted(lines) for rel, lines in sorted(executed.items())}, fh)
    os.replace(out + ".tmp", out)
    unreached = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            rel = os.path.relpath(os.path.join(PACKAGE, name), ROOT)
            missed = executable_lines(os.path.join(PACKAGE, name)) - executed.get(rel, set())
            if missed:
                unreached[rel] = sorted(missed)
    print(json.dumps({"unreached": unreached,
                      "count": sum(len(lines) for lines in unreached.values())}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
