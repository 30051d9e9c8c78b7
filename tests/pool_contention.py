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
finished.

During the ``pool`` rounds the parent samples the pool process's worker
threads about every 2 ms: each thread's state and last CPU, fields 3 and
39 of ``/proc/<pid>/task/<tid>/stat``. The process reports its pool
threads' native ids, since the interpreter does not name them for the
kernel.

It prints one JSON line: ``n``, ``pool_s`` and ``two_process_s`` (the
medians over the rounds), ``ratio`` (``two_process_s / pool_s``; under 1
when the pool's two threads slow each other down more than two processes
do) and ``same_cpu_share``: of the samples in which both workers were
runnable, the share in which they were on one CPU. It is null without
``/proc``, without two workers, or when no sample found both runnable.
With a single usable CPU both sides run on it.
"""

import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROUNDS = 9
SAMPLE_S = 0.002

CHILD = """
import contextlib, io, os, sys, threading
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
from serhybrid import cli
argv = ["features", "--manifest", sys.argv[2], "--out", sys.argv[3]]

def run():
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit("features failed")

run()
workers = [t.native_id for t in threading.enumerate() if t.name.startswith("serhybrid")]
print("ready", *workers, flush=True)
for _ in sys.stdin:
    run()
    print("done", flush=True)
"""


def _start(cpus, manifest, out, env):
    """A warmed-up features process, and the native ids of its pool threads."""
    child = subprocess.Popen([sys.executable, "-c", CHILD, ",".join(map(str, cpus)), manifest,
                              out], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    ready, *workers = child.stdout.readline().split()
    if ready != "ready":
        raise SystemExit("pool_contention: a features process failed to start")
    return child, [int(tid) for tid in workers]


@contextlib.contextmanager
def _sampled(pid, tids, samples):
    """While the block runs, append one (state, cpu) pair per thread of
    ``tids`` to ``samples`` about every SAMPLE_S seconds."""
    fds = [os.open(f"/proc/{pid}/task/{tid}/stat", os.O_RDONLY) for tid in tids]
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            # fields after the parenthesized name start at field 3, the state
            stats = [os.pread(fd, 1024, 0).rpartition(b")")[2].split() for fd in fds]
            samples.append([(fields[0], int(fields[36])) for fields in stats])
            stop.wait(SAMPLE_S)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        yield
    finally:
        stop.set()
        sampler.join()
        for fd in fds:
            os.close(fd)


def _same_cpu_share(samples):
    """Of the samples with both threads runnable, the share on one CPU."""
    both = [row for row in samples if all(state == b"R" for state, _ in row)]
    if not both:
        return None
    return round(sum(len({cpu for _, cpu in row}) == 1 for row in both) / len(both), 3)


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
        started = [_start(c, m, o, env)
                   for c, m, o in zip((cpus, first, second), manifests, outs)]
        children = [child for child, _ in started]
        pool, workers = started[0]
        sampling = len(workers) == 2 and os.path.isdir(f"/proc/{pool.pid}/task")
        samples = []
        try:
            times = []
            for _ in range(ROUNDS):
                with (_sampled(pool.pid, workers, samples) if sampling
                      else contextlib.nullcontext()):
                    pool_round = _round(children[:1])
                times.append((pool_round, _round(children[1:])))
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
        "same_cpu_share": _same_cpu_share(samples),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
