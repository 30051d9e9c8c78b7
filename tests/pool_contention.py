"""Measure how the shared thread pool's threads contend in ``features``.

    python tests/pool_contention.py N

writes a synthetic corpus of 2-s clips, then times the ``features``
command over its first N in two ways, in alternating rounds:

- ``pool``: one process on two CPUs, whose shared pool runs two threads
  over all N clips;
- ``two_process``: two processes started together, one CPU and so a
  one-thread pool each, over the first N // 2 clips and the rest.

Every process runs ``features`` once before the rounds, so scipy is
loaded and its scratch buffers are faulted in. A round's time is the wall
time from the start signal until every process of that side has
finished. It prints one JSON line: ``n``, ``pool_s`` and
``two_process_s`` (the medians over the rounds) and ``ratio``
(``two_process_s / pool_s``; under 1 when the pool's two threads slow
each other down more than two processes do). With a single usable CPU
both sides run on it.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROUNDS = 9

CHILD = """
import contextlib, io, os, sys
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
from serhybrid import cli
argv = ["features", "--manifest", sys.argv[2], "--out", sys.argv[3]]

def run():
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit("features failed")

run()
print("ready", flush=True)
for _ in sys.stdin:
    run()
    print("done", flush=True)
"""


def _start(cpus, manifest, out, env):
    child = subprocess.Popen([sys.executable, "-c", CHILD, ",".join(map(str, cpus)), manifest,
                              out], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    if child.stdout.readline() != "ready\n":
        raise SystemExit("pool_contention: a features process failed to start")
    return child


def _round(children):
    """Wall seconds from the start signal until every child is done."""
    start = time.perf_counter()
    for child in children:
        child.stdin.write("go\n")
        child.stdin.flush()
    for child in children:
        if child.stdout.readline() != "done\n":
            raise SystemExit("pool_contention: a features run failed")
    return time.perf_counter() - start


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 2:
        raise SystemExit("usage: pool_contention.py N  (N >= 2)")
    n = int(argv[0])
    sys.path.insert(0, SRC)
    from serhybrid import corpus

    cpus = sorted(os.sched_getaffinity(0))[:2]
    first, second = [cpus[0]], [cpus[-1]]
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        clips = corpus.generate_synthetic_corpus(
            corpus.SynthRecipe(n_per_class=-(-n // len(corpus.CLASSES))), tmp)[:n]
        parts = [clips, clips[:n // 2], clips[n // 2:]]
        manifests = [os.path.join(tmp, f"part{i}.csv") for i in range(3)]
        for path, entries in zip(manifests, parts):
            corpus.save_manifest(path, entries)
        outs = [os.path.join(tmp, f"features{i}.csv") for i in range(3)]
        children = [_start(c, m, o, env)
                    for c, m, o in zip((cpus, first, second), manifests, outs)]
        try:
            times = [(_round(children[:1]), _round(children[1:])) for _ in range(ROUNDS)]
        finally:
            for child in children:
                child.stdin.close()
            for child in children:
                child.wait()
    pool_s = statistics.median(t[0] for t in times)
    two_process_s = statistics.median(t[1] for t in times)
    print(json.dumps({
        "n": n,
        "pool_s": round(pool_s, 4),
        "two_process_s": round(two_process_s, 4),
        "ratio": round(two_process_s / pool_s, 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
