"""One process-wide thread pool, and an ordered map over it.

numpy's FFTs and array operations release the interpreter lock, so the
per-file work of ``preprocess``, ``features`` and ``synth`` runs on every
usable CPU from the threads of one process. The pool is sized to those CPUs, created
on first use and kept for the life of the process: every later command
reuses its threads, so commands run one after another in one process
neither start new threads nor let memory creep. A thread keeps its frame
DSP scratch buffers (``features.py``) from item to item, bounded by one
block of frames.
"""

import collections
import itertools
import os
import threading

_lock = threading.Lock()
_shared = None  # (executor, window), made on first use


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_pool():
    """The executor, and how many items may be submitted and not yet
    yielded: twice its thread count."""
    global _shared
    import concurrent.futures  # here, so that commands that map nothing never load it
    with _lock:
        if _shared is None:
            workers = usable_cpus()
            _shared = (concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="serhybrid"), 2 * workers)
        return _shared


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each of ``items``, in input order, computed
    on the shared pool.

    At most twice the pool's thread count of items are submitted and not
    yet yielded, so memory holds a bounded window of results. When an
    item raises, the items after it that have not started never start,
    the ones already running are waited for, and the exception is
    re-raised unchanged; the same happens when the caller stops
    iterating early. ``fn`` must not itself wait on the pool.
    """
    import concurrent.futures
    pool, window = _shared_pool()
    items = iter(items)
    pending = collections.deque(
        pool.submit(fn, item) for item in itertools.islice(items, window))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()
        concurrent.futures.wait(pending)
