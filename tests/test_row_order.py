"""Outputs that do not depend on the manifest's row order: a permuted
manifest permutes the rows of ``features.csv``, gives each sample the
same prediction line in ``predict`` and in every version of ``compare``,
and leaves ``compare.txt`` unchanged. ``stats.json``, ``kappa.json`` and
``refine``'s proposals, which reduce floats over their rows, keep every
byte when the manifest and the predictions file are permuted."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mockllm import MockLlmServer
from serhybrid import cli, corpus
from serhybrid.labels import CLASSES

# permutations per byte check: a float reduction in the manifest's row
# order changes these bytes in about half of all permutations
PERMUTATIONS = range(1, 6)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A nine-sample synthetic corpus with its features, stats and model."""
    root = tmp_path_factory.mktemp("row_order")
    assert cli.main(["synth", "--out-dir", str(root / "corpus"), "--n-per-class", "3",
                     "--seed", "5", "--duration-s", "0.8"]) == 0
    paths = {"root": root, "manifest": root / "corpus" / "manifest.csv",
             "features": root / "features.csv", "stats": root / "stats.json",
             "model": root / "model.json"}
    assert cli.main(["features", "--manifest", str(paths["manifest"]),
                     "--out", str(paths["features"]), "--stats-out", str(paths["stats"])]) == 0
    assert cli.main(["train", "--manifest", str(paths["manifest"]),
                     "--features", str(paths["features"]),
                     "--model-out", str(paths["model"])]) == 0
    return paths


def _permuted_manifest(tiny, tmp_path, seed):
    entries = corpus.load_manifest(tiny["manifest"])
    permuted = [entries[i] for i in np.random.default_rng(seed).permutation(len(entries))]
    path = tmp_path / "permuted.csv"
    corpus.save_manifest(path, permuted)
    return path, [e.sample_id for e in permuted]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_manifest_permutes_feature_rows(tiny, tmp_path, seed):
    manifest, order = _permuted_manifest(tiny, tmp_path, seed)
    out = tmp_path / "features.csv"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    header, *rows = Path(tiny["features"]).read_bytes().decode().split("\r\n")[:-1]
    permuted_header, *permuted_rows = out.read_bytes().decode().split("\r\n")[:-1]
    assert permuted_header == header
    by_id = {row.split(",")[1]: row for row in rows}
    assert permuted_rows == [by_id[sample_id] for sample_id in order]


@pytest.mark.parametrize("seed", [1, 2])
def test_permuted_manifest_keeps_each_prediction_line(tiny, tmp_path, seed):
    manifest, order = _permuted_manifest(tiny, tmp_path, seed)
    cache = tmp_path / "cache"
    with MockLlmServer() as server:
        def predict(manifest, out):
            # the model's confidences lie from 0.75 to 0.78: tau 0.76 sends
            # four samples to the mock and answers five from the classifier
            assert cli.main(["predict", "--manifest", str(manifest),
                             "--features", str(tiny["features"]), "--model", str(tiny["model"]),
                             "--stats", str(tiny["stats"]), "--version", "v4_hybrid",
                             "--tau", "0.76", "--endpoint-url", server.base_url,
                             "--model-name", "m", "--cache", str(cache),
                             "--out", str(out)]) == 0
            return out.read_text().splitlines()

        predict(tiny["manifest"], tmp_path / "cold.jsonl")
        cold_requests = server.request_count
        original = predict(tiny["manifest"], tmp_path / "original.jsonl")
        permuted = predict(manifest, tmp_path / "permuted.jsonl")
        assert server.request_count == cold_requests
    sources = {json.loads(line)["source"] for line in original}
    assert sources == {"ml_direct", "llm_reasoned"}
    by_id = {json.loads(line)["sample_id"]: line for line in original}
    assert permuted == [by_id[sample_id] for sample_id in order]


@pytest.mark.parametrize("seed", [1, 2])
def test_permuted_manifest_keeps_each_compare_line(tiny, tmp_path, seed):
    manifest, order = _permuted_manifest(tiny, tmp_path, seed)
    cache = tmp_path / "cache"
    with MockLlmServer() as server:
        def compare(manifest, out_dir):
            assert cli.main(["compare", "--manifest", str(manifest),
                             "--features", str(tiny["features"]), "--model", str(tiny["model"]),
                             "--stats", str(tiny["stats"]), "--tau", "0.76",
                             "--endpoint-url", server.base_url, "--model-name", "m",
                             "--cache", str(cache), "--out-dir", str(out_dir)]) == 0
            return out_dir

        compare(tiny["manifest"], tmp_path / "cold")
        cold_requests = server.request_count
        original = compare(tiny["manifest"], tmp_path / "original")
        permuted = compare(manifest, tmp_path / "permuted")
        assert server.request_count == cold_requests
    assert (permuted / "compare.txt").read_bytes() == (original / "compare.txt").read_bytes()
    names = sorted(path.name for path in original.glob("predictions_*.jsonl"))
    assert len(names) == 5
    for name in names:
        lines = (original / name).read_text().splitlines()
        by_id = {json.loads(line)["sample_id"]: line for line in lines}
        assert (permuted / name).read_text().splitlines() == [by_id[i] for i in order]


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    """A 120-sample overlapping corpus with its features, stats, model and
    v4 predictions at tau 0, each sample answered by the classifier."""
    root = tmp_path_factory.mktemp("row_order_mined")
    paths = {"manifest": root / "corpus" / "manifest.csv", "features": root / "features.csv",
             "stats": root / "stats.json", "model": root / "model.json",
             "predictions": root / "predictions.jsonl"}
    assert cli.main(["synth", "--out-dir", str(root / "corpus"), "--n-per-class", "40",
                     "--overlap", "0.5", "--duration-s", "0.8"]) == 0
    assert cli.main(["features", "--manifest", str(paths["manifest"]),
                     "--out", str(paths["features"]), "--stats-out", str(paths["stats"])]) == 0
    assert cli.main(["train", "--manifest", str(paths["manifest"]),
                     "--features", str(paths["features"]),
                     "--model-out", str(paths["model"])]) == 0
    with MockLlmServer() as server:
        assert cli.main(["predict", "--manifest", str(paths["manifest"]),
                         "--features", str(paths["features"]), "--model", str(paths["model"]),
                         "--stats", str(paths["stats"]), "--version", "v4_hybrid",
                         "--tau", "0", "--endpoint-url", server.base_url,
                         "--model-name", "m", "--out", str(paths["predictions"])]) == 0
        assert server.request_count == 0
    return paths


def test_stats_do_not_depend_on_manifest_row_order(mined, tmp_path):
    for seed in PERMUTATIONS:
        manifest, _ = _permuted_manifest(mined, tmp_path, seed)
        stats = tmp_path / "stats.json"
        assert cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "features.csv"),
                         "--stats-out", str(stats)]) == 0
        assert stats.read_bytes() == mined["stats"].read_bytes(), f"permutation {seed}"


def test_refine_does_not_depend_on_row_order(mined, tmp_path):
    def refine(manifest, predictions, out):
        assert cli.main(["refine", "--predictions", str(predictions),
                         "--manifest", str(manifest), "--features", str(mined["features"]),
                         "--stats", str(mined["stats"]), "--proposals-out", str(out),
                         "--min-support", "2"]) == 0
        return out.read_bytes()

    original = refine(mined["manifest"], mined["predictions"], tmp_path / "original.json")
    assert json.loads(original)["proposals"]
    lines = mined["predictions"].read_text().splitlines(keepends=True)
    for seed in PERMUTATIONS:
        manifest, _ = _permuted_manifest(mined, tmp_path, seed)
        predictions = tmp_path / "predictions.jsonl"
        order = np.random.default_rng(100 + seed).permutation(len(lines))
        predictions.write_text("".join(lines[i] for i in order))
        assert refine(manifest, predictions, tmp_path / "permuted.json") == original, \
            f"permutation {seed}"


def test_kappa_does_not_depend_on_manifest_row_order(tmp_path):
    # 120 rows; each vote names gold with probability 0.85, else another class
    rng = np.random.default_rng(7)

    def vote(gold):
        if rng.random() < 0.85:
            return gold
        return rng.choice([c for c in CLASSES if c != gold])

    entries = [corpus.ManifestEntry(sample_id=f"s{i:03d}", gold=CLASSES[i % len(CLASSES)])
               for i in range(120)]
    entries = [dataclasses.replace(e, **{column: vote(e.gold) for column in corpus.VOTES})
               for e in entries]

    def kappa(order, out):
        manifest = tmp_path / "manifest.csv"
        corpus.save_manifest(manifest, [entries[i] for i in order])
        assert cli.main(["kappa", "--manifest", str(manifest), "--out", str(out)]) == 0
        return out.read_bytes()

    original = kappa(range(len(entries)), tmp_path / "original.json")
    assert json.loads(original)["n_items"] == 120
    for seed in PERMUTATIONS:
        order = np.random.default_rng(seed).permutation(len(entries))
        assert kappa(order, tmp_path / "permuted.json") == original, f"permutation {seed}"
