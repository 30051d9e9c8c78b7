"""The README's CLI walkthrough, end to end, against the mock LLM server.

    PYTHONPATH=src python tests/walkthrough.py OUT_DIR CACHE_DIR

runs ``synth`` (120 samples, seed 11, overlap 0.4), ``features``, ``train``,
``predict`` v4_hybrid, ``evaluate``, ``kappa`` on a copy of the manifest with
votes made from gold, ``refine --accept-all --min-support 2``, ``refine
--apply``, ``compare`` v1-v5 and a text-baseline ``predict``, and
writes every artifact under OUT_DIR, which it empties first. LLM answers are
cached in CACHE_DIR, so a run whose cache is warm sends no request. Runs into
the same OUT_DIR with a warm cache write byte-identical trees, so the output
of two source trees compares with ``diff -r``. The mock serves on a fixed
local port because run reports embed the endpoint URL.
"""

import json
import os
import shutil
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mockllm import MockLlmServer  # noqa: E402
from serhybrid import cli, corpus, reasoning  # noqa: E402
from serhybrid.labels import CLASSES  # noqa: E402

PORT = 18571

NEUTRAL = "the meeting moved to thursday"


def run(out_dir, cache_dir, base_url):
    """Run the walkthrough against the endpoint at ``base_url``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    def o(*parts):
        return os.path.join(out_dir, *parts)

    def step(*argv):
        if cli.main(list(argv)) != 0:
            raise SystemExit(f"walkthrough step failed: serhybrid {' '.join(argv)}")

    manifest = o("corpus", "manifest.csv")
    step("synth", "--out-dir", o("corpus"), "--n-per-class", "40", "--overlap", "0.4",
         "--seed", "11")
    step("features", "--manifest", manifest, "--out", o("features.csv"),
         "--stats-out", o("stats.json"))
    step("train", "--manifest", manifest, "--features", o("features.csv"),
         "--model-out", o("model.json"))
    config = o("client_config.json")
    with open(config, "w") as fh:
        json.dump({"endpoint_url": base_url, "model_name": "mock", "cache": cache_dir,
                   "max_in_flight": 2, "timeout_s": 10.0}, fh)
    data = ("--manifest", manifest, "--features", o("features.csv"),
            "--model", o("model.json"), "--stats", o("stats.json"))
    step("--config", config, "predict", *data, "--version", "v4_hybrid",
         "--out", o("pred_v4.jsonl"), "--report", o("report_v4.json"))
    step("--config", config, "evaluate", "--predictions", o("pred_v4.jsonl"),
         "--manifest", manifest, "--out", o("eval_v4.json"))
    entries = corpus.load_manifest(manifest)

    def vote(i, k, gold):
        # annotator k names the class after gold on every (k + 5)th sample
        return CLASSES[(CLASSES.index(gold) + (i % (k + 5) == k)) % len(CLASSES)]

    corpus.save_manifest(o("manifest_voted.csv"), [
        replace(e, **{column: vote(i, k, e.gold) for k, column in enumerate(corpus.VOTES)})
        for i, e in enumerate(entries)])
    step("kappa", "--manifest", o("manifest_voted.csv"), "--out", o("kappa.json"))
    reasoning.default_ruleset().save(o("rules.json"))
    step("--config", config, "refine", "--predictions", o("pred_v4.jsonl"), "--manifest", manifest,
         "--features", o("features.csv"), "--stats", o("stats.json"),
         "--rules", o("rules.json"), "--proposals-out", o("proposals.json"),
         "--accept-all", "--min-support", "2")
    step("--config", config, "refine", "--apply", o("proposals.json"),
         "--rules", o("rules.json"), "--rules-out", o("rules_v2.json"))
    step("--config", config, "compare", *data, "--rules", o("rules.json"),
         "--refined-rules", o("rules_v2.json"), "--out-dir", o("ablation"))
    # every third transcript names the gold label, the rest are neutral
    with open(o("transcripts.csv"), "w") as fh:
        fh.write("sample_id,transcript\n")
        for i, e in enumerate(entries):
            fh.write(f"{e.sample_id},{f'i am so {e.gold}' if i % 3 == 0 else NEUTRAL}\n")
    step("--config", config, "predict", "--manifest", manifest, "--version", "text_baseline",
         "--transcripts", o("transcripts.csv"), "--out", o("pred_text.jsonl"),
         "--report", o("report_text.json"))


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: walkthrough.py OUT_DIR CACHE_DIR")
    out_dir, cache_dir = (os.path.abspath(a) for a in argv)
    with MockLlmServer(PORT) as server:
        run(out_dir, cache_dir, server.base_url)
        print(f"walkthrough -> {out_dir}; the mock answered {server.request_count} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
