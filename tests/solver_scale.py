"""Time one SVM training run on overlapping Gaussian blobs.

    PYTHONPATH=src python tests/solver_scale.py N_PER_CLASS

trains ``classifier.train`` at its defaults on
``test_classifier._blobs(seed=0, n_per_class=N_PER_CLASS, spread=6.0)``
and prints one JSON line: ``n``, ``train_s`` (wall time of the call),
``peak_rss_mb`` (the process's peak resident set), the per-head
``iterations``, ``us_per_iteration`` (``train_s`` in microseconds over the
heads' total iterations) and ``model_sha256``, the SHA-256 of
``model.to_json()``.
At 921 per class, n = 2,763, the size of the paper's corpus. The script
calls nothing but ``train``, so two source trees compare by their hashes.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from serhybrid import classifier  # noqa: E402
from test_classifier import _blobs  # noqa: E402


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        raise SystemExit("usage: solver_scale.py N_PER_CLASS")
    vectors, labels = _blobs(seed=0, n_per_class=int(argv[0]), spread=6.0)
    start = time.perf_counter()
    model = classifier.train(vectors, labels)
    train_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; MB here are MiB, as in perfbench
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "n": len(labels),
        "train_s": round(train_s, 3),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "iterations": model.meta["iterations"],
        "us_per_iteration": round(train_s * 1e6 / sum(model.meta["iterations"]), 2),
        "model_sha256": hashlib.sha256(model.to_json().encode("utf-8")).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
