"""Measure what ``import serhybrid.cli`` costs a fresh process.

    python tests/startup_cost.py [N]

starts N (default 5) fresh interpreters one after another, each of which
imports ``serhybrid.cli`` from this source tree and exits. It prints one
JSON line: ``n``, ``import_s`` (the median wall time of the import inside
the process, interpreter start-up excluded), ``peak_rss_mb`` (the median
peak resident set of the process), ``scipy_modules``, the sorted names
of the scipy modules any of them had loaded, and ``network_modules``, the
sorted names of those of NETWORK_MODULES any of them had loaded. Every
command pays this cost before it starts work; only the DSP commands should
add scipy to it, and only ``predict`` and ``compare`` the network modules.
"""

import json
import os
import statistics
import subprocess
import sys

# what sending requests and running a thread pool load: http.client pulls
# in ssl and email
NETWORK_MODULES = ("concurrent.futures", "http.client", "ssl", "urllib.request")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import json, resource, sys, time
network = sys.argv[1:]
start = time.perf_counter()
import serhybrid.cli
import_s = time.perf_counter() - start
print(json.dumps({
    "import_s": import_s,
    # ru_maxrss is in KiB on Linux; MB here are MiB, as in perfbench
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy_modules": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "network_modules": sorted(m for m in network if m in sys.modules),
}))
"""


def main(argv):
    if len(argv) > 1 or (argv and (not argv[0].isdigit() or int(argv[0]) < 1)):
        raise SystemExit("usage: startup_cost.py [N]")
    n = int(argv[0]) if argv else 5
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [json.loads(subprocess.run([sys.executable, "-c", CHILD, *NETWORK_MODULES], env=env,
                                      check=True, capture_output=True, text=True).stdout)
            for _ in range(n)]
    print(json.dumps({
        "n": n,
        "import_s": round(statistics.median(r["import_s"] for r in runs), 3),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "scipy_modules": sorted({m for r in runs for m in r["scipy_modules"]}),
        "network_modules": sorted({m for r in runs for m in r["network_modules"]}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
