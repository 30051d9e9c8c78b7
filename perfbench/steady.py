"""Steadiness check: two sets of ten runs of every workload, medians compared.

    python3 perfbench/steady.py

Runs the command in BENCHMARK.json ten times per workload in each of two
sets, each run with its own seed (set k, run i uses seed 1 + 10*k + i).
For every end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile of the runs, as a share of
their median), and the drift, the distance between the two medians as a
share of the first. A metric passes when both spreads and the drift are
within its bound; the share of failed operations must be the same in both
sets. Exit code 0 when everything passes. Run from the repository root.
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ok = True
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(2):
            runs = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                result, wall = run_once(spec, workload, seed)
                runs.append(result)
                print(f"{workload} set {k} seed {seed}: {wall:.1f}s correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                      flush=True)
                ok &= result["correct"]
            sets.append(runs)
        same_share = len({r["failed"] / r["attempted"] for runs in sets for r in runs}) == 1
        ok &= same_share
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            drift = abs(medians[1] - medians[0]) / medians[0]
            passed = drift <= bound and max(spreads) <= bound
            ok &= passed
            rows[name] = {"medians": medians, "spreads": spreads, "drift": drift,
                          "bound": bound, "pass": passed}
            print(f"  {workload:8s} {name:12s} medians " + " ".join(f"{m:.4g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  drift {drift:.3f}  bound {bound}  {'ok' if passed else 'FAIL'}",
                  flush=True)
        summary[workload] = {"metrics": rows, "same_failed_share": same_share}
    print(json.dumps({"pass": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
