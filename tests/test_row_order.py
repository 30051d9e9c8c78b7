"""Outputs that do not depend on the manifest's row order: a permuted
manifest permutes the rows of ``features.csv``, gives each sample the
same prediction line in ``predict`` and in every version of ``compare``,
and leaves ``compare.txt`` unchanged."""

import json
from pathlib import Path

import numpy as np
import pytest

from mockllm import MockLlmServer
from serhybrid import cli, corpus


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
