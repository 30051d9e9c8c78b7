"""serhybrid benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload extract|train|compare --seed N \
        --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` the workload's rounds run
untraced and the result carries the end-to-end metrics; with ``--trace 1``
set-up and rounds run under the span tracer and the result carries the
per-layer metrics; the same rounds run untraced first, and the ratio of the
two medians is the tracing overhead.
The last line of stdout is the JSON result; see perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metric -> span whose self time (s) or call count it reports
SELF_TIME = {
    "audio_io.load_audio_s": "audio_io.load_audio",
    "audio_io.standardize_s": "audio_io.standardize",
    "audio_io.detect_voice_activity_s": "audio_io.detect_voice_activity",
    "audio_io.segment_s": "audio_io.segment",
    "audio_io.save_wav_s": "audio_io.save_wav",
    "features.extract_series_s": "features.extract_series",
    "features.estimate_pitch_s": "features.estimate_pitch",
    "features.mfcc_s": "features.mfcc",
    "features.aggregate_s": "features.aggregate",
    "features.describe_s": "features.describe",
    "features.read_features_csv_s": "features.read_features_csv",
    "features.write_features_csv_s": "features.write_features_csv",
    "classifier.train_s": "classifier.train",
    "classifier.predict_s": "classifier.predict",
    "reasoning.build_prompt_s": "reasoning.build_prompt",
    "reasoning.parse_label_s": "reasoning.parse_label",
    "hybrid.run_pipeline_self_s": "hybrid.run_pipeline",
    "hybrid.run_text_baseline_self_s": "hybrid.run_text_baseline",
    "refine.mine_error_patterns_s": "refine.mine_error_patterns",
    "evaluation.metrics_s": "evaluation.metrics",
    "evaluation.compare_report_s": "evaluation.compare_report",
    "corpus.generate_synthetic_corpus_s": "corpus.generate_synthetic_corpus",
    "corpus.load_manifest_s": "corpus.load_manifest",
}
CALLS = {
    "features.estimate_pitch_calls": "features.estimate_pitch",
    "features.mfcc_calls": "features.mfcc",
    "features.mel_filterbank_calls": "features.mel_filterbank",
    "classifier.predict_calls": "classifier.predict",
}
ITEMS = {
    "audio_io.segments": "audio_io.segment",
    "refine.proposals": "refine.propose_rules",
}
SUBCOMMANDS = ("synth", "preprocess", "features", "train", "predict", "evaluate",
               "refine", "compare")
# figures a workload measures itself; 0 where the workload has none
WORKLOAD_VALUES = {"reasoning.requests_sent": "count", "reasoning.retries": "count",
                   "reasoning.useful_request_ratio": "1", "hybrid.routed_to_llm": "count",
                   "hybrid.v4_macro_f1": "1", "classifier.heldout_macro_f1": "1",
                   "classifier.objective_excess": "1"}


def per_layer(agg, n_setups, n_rounds, values, overhead_pct):
    """Per-layer figures: one set-up plus one measured round, each the mean
    over the set-ups and rounds the run made."""
    from spans import LAYERS

    def fold(field, name=None, layer=None, phases=None):
        total = 0.0
        for key, rec in agg.items():
            span, phase = key.split("|")
            if name is not None and span != name:
                continue
            if layer is not None and span.split(".")[0] != layer:
                continue
            if phases is not None and phase not in phases:
                continue
            total += rec[field] / (n_setups if phase == "setup" else n_rounds)
        return total

    m = {}
    for metric, span in SELF_TIME.items():
        m[metric] = (fold("self_s", name=span), "s")
    for metric, span in CALLS.items():
        m[metric] = (fold("calls", name=span), "count")
    for metric, span in ITEMS.items():
        m[metric] = (fold("items", name=span), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (fold("self_s", layer=layer), "s")
        m[f"{layer}.calls"] = (fold("calls", layer=layer), "count")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = (fold("total_s", name=f"cli.{sub}"), "s")
    batch = "reasoning.HttpLlmClient.complete_batch"
    m["reasoning.complete_batch_cold_s"] = (fold("total_s", name=batch, phases={"cold"}), "s")
    m["reasoning.complete_batch_warm_s"] = (fold("total_s", name=batch, phases={"warm"}), "s")
    m["reasoning.cache_hits"] = (fold("items", name="reasoning.HttpLlmClient.complete"), "count")
    misses = [ms for key, rec in agg.items() if key.startswith("reasoning.HttpLlmClient.complete|")
              for ms in rec["miss_ms"]]
    if len(misses) >= 2:
        q = statistics.quantiles(misses, n=100, method="inclusive")
        m["reasoning.complete_ms_p50"] = (q[49], "ms")
        m["reasoning.complete_ms_p99"] = (q[98], "ms")
    else:
        m["reasoning.complete_ms_p50"] = (0.0, "ms")
        m["reasoning.complete_ms_p99"] = (0.0, "ms")
    for name, unit in WORKLOAD_VALUES.items():
        m[name] = (float(values.get(name, 0)), unit)
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def timed_rounds(wl, seconds):
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round())
    return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description="serhybrid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still leaves through the finally blocks below, which
    # stop the set-up workers and the mock endpoint
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in ("src/serhybrid/cli.py", "tests/mockllm.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "serhybrid checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.chdir(ROOT)
    from spans import Tracer, merge
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    wl = WORKLOADS[args.workload](work, args.seed, tracer, workers)
    try:
        if tracer:
            tracer.install()
        setup_times = []
        for k in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup(k)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        for _ in range(wl.warmup_rounds):
            wl.round()  # untimed and untraced: first-call costs stay out of the median
        overhead_pct = 0.0
        if tracer:
            # the same rounds untraced first: their median is the base of
            # the tracing overhead
            untraced = timed_rounds(wl, args.seconds)
            tracer.phase = "round"
            tracer.install()
        rounds = timed_rounds(wl, args.seconds)
        if tracer:
            tracer.uninstall()
            overhead_pct = (statistics.median(rounds) / statistics.median(untraced) - 1.0) * 100.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.verify()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        agg = merge(merge({}, wl.setup_agg), tracer.aggregate())
        metrics = per_layer(agg, wl.setup_repeats, len(rounds), wl.layer_values,
                            overhead_pct)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "batch_s": {"value": statistics.median(rounds), "unit": "s"},
        }
    print(json.dumps({"correct": not wl.problems, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
