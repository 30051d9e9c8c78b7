"""Manifests, stratified splits, and the synthetic generator."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serhybrid.corpus import (DEFAULT_CLASS_RECIPES, DEFAULT_FRACTIONS,
                              ManifestEntry, SynthRecipe, _largest_remainder,
                              generate_synthetic_corpus, load_manifest, save_manifest,
                              stratified_split)
from serhybrid.errors import ConfigError, DataError
from serhybrid.labels import CLASSES


def _entries(n=10, gold="calm"):
    return [ManifestEntry(sample_id=f"s{i}", gold=gold, audio_path=f"{i}.wav",
                          duration_s=1.5) for i in range(n)]


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry(sample_id="a", gold="calm", annotator_a="calm",
                          annotator_b="angry", annotator_c="calm",
                          split="set1", source_kind="movie", duration_s=2.0),
            ManifestEntry(sample_id="b"),
        ]
        path = tmp_path / "manifest.csv"
        save_manifest(path, entries)
        assert load_manifest(path) == entries

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(path, [ManifestEntry("x"), ManifestEntry("x")])
        with pytest.raises(DataError, match="manifest.csv line 3: duplicate sample_id 'x'"):
            load_manifest(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("sample_id,gold\na,joyful\n")
        with pytest.raises(ConfigError, match="joyful"):
            load_manifest(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("sample_id,mystery\na,1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_manifest(path)

    def test_missing_sample_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("sample_id,gold\n,calm\n")
        with pytest.raises(ConfigError, match="missing sample_id"):
            load_manifest(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("not,a,manifest\n1,2,3\n")
        with pytest.raises(ConfigError, match="manifest.csv: the header lacks columns: sample_id"):
            load_manifest(path)

    def test_overlong_row_names_its_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("sample_id,gold\na,calm\nb,calm,angry\n")
        with pytest.raises(ConfigError, match=r"manifest.csv line 3: 3 cells, the header names 2"):
            load_manifest(path)

    @pytest.mark.parametrize("cell, message", [
        ("abc", "duration_s must be a number, got 'abc'"),
        # each of these once loaded as the entry's duration
        ("nan", "duration_s must be finite and at least 0, got 'nan'"),
        ("inf", "duration_s must be finite and at least 0, got 'inf'"),
        ("-inf", "duration_s must be finite and at least 0, got '-inf'"),
        ("-3", "duration_s must be finite and at least 0, got '-3'"),
    ], ids=["abc", "nan", "inf", "-inf", "-3"])
    def test_bad_duration_rejected(self, tmp_path, cell, message):
        path = tmp_path / "manifest.csv"
        path.write_text(f"sample_id,duration_s\na,1.5\nb,{cell}\n")
        with pytest.raises(ConfigError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path} line 3: {message}"

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(path, _entries(2))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_manifest(path) == _entries(2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(path, _entries(2))
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", rows[0], "", "", rows[1], "", ""]))
        assert load_manifest(path) == _entries(2)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"\xff\xfesample_id\na\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_manifest(path)


class TestLargestRemainder:
    def test_published_counts(self):
        # the per-class allocations behind the 706/691/696/671 split sizes
        assert _largest_remainder(942, DEFAULT_FRACTIONS) == [241, 235, 237, 229]
        assert _largest_remainder(980, DEFAULT_FRACTIONS) == [250, 245, 247, 238]
        assert _largest_remainder(842, DEFAULT_FRACTIONS) == [215, 211, 212, 204]
        # column sums give the published split sizes
        totals = [sum(col) for col in zip(
            _largest_remainder(942, DEFAULT_FRACTIONS),
            _largest_remainder(980, DEFAULT_FRACTIONS),
            _largest_remainder(842, DEFAULT_FRACTIONS))]
        assert totals == [706, 691, 696, 671]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_total_preserved(self, n):
        counts = _largest_remainder(n, DEFAULT_FRACTIONS)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)


class TestStratifiedSplit:
    def test_every_entry_assigned_and_proportions_held(self):
        entries = []
        for label, n in zip(CLASSES, (40, 40, 40)):
            entries += [ManifestEntry(f"{label}_{i}", gold=label)
                        for i in range(n)]
        split = stratified_split(entries, fractions=(0.5, 0.25, 0.25), seed=3)
        assert len(split) == len(entries)
        for label in CLASSES:
            sizes = [sum(1 for e in split if e.gold == label and e.split == s)
                     for s in ("set1", "set2", "set3")]
            assert sizes == [20, 10, 10]

    def test_deterministic_and_seed_sensitive(self):
        entries = [ManifestEntry(f"s{i}", gold=CLASSES[i % 3]) for i in range(60)]
        a = stratified_split(entries, seed=5)
        b = stratified_split(entries, seed=5)
        c = stratified_split(entries, seed=6)
        assert a == b
        assert a != c

    def test_missing_gold_rejected(self):
        # the one label check of train, evaluate, refine and compare: it
        # names up to five sample ids
        entries = [ManifestEntry(f"s{i}", gold=None if i % 2 else "calm") for i in range(14)]
        with pytest.raises(DataError) as err:
            stratified_split(entries)
        assert str(err.value) == "entries without gold labels: ['s1', 's3', 's5', 's7', 's9']"


class TestRecipes:
    def test_blend_midpoint(self):
        calm = DEFAULT_CLASS_RECIPES["calm"]
        panic = DEFAULT_CLASS_RECIPES["panic"]
        mid = calm.blend(panic, 0.5)
        assert mid.base_pitch_hz == (calm.base_pitch_hz + panic.base_pitch_hz) / 2
        assert mid.energy_level == (calm.energy_level + panic.energy_level) / 2

    def test_blend_endpoints(self):
        calm = DEFAULT_CLASS_RECIPES["calm"]
        angry = DEFAULT_CLASS_RECIPES["angry"]
        assert calm.blend(angry, 0.0) == calm
        assert calm.blend(angry, 1.0).base_pitch_hz == angry.base_pitch_hz

    @pytest.mark.parametrize("kwargs", [
        {"overlap": -0.1}, {"overlap": 1.5},
        {"overlap": float("nan")}, {"duration_s": float("nan")},
        {"duration_s": 0.0}, {"duration_s": -1.0}, {"duration_s": 1e-5},
        {"duration_s": float("inf")}, {"seed": -1}, {"n_per_class": -1},
    ])
    def test_recipe_validation(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            SynthRecipe(**kwargs)


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        recipe = SynthRecipe(seed=4, n_per_class=3, duration_s=0.6, overlap=0.4)
        first = generate_synthetic_corpus(recipe, tmp_path / "a")
        second = generate_synthetic_corpus(recipe, tmp_path / "b")
        assert [e.sample_id for e in first] == [e.sample_id for e in second]
        for e1, e2 in zip(first, second):
            data1 = Path(e1.audio_path).read_bytes()
            data2 = Path(e2.audio_path).read_bytes()
            assert data1 == data2

    def test_layout_and_manifest(self, tmp_path):
        recipe = SynthRecipe(seed=4, n_per_class=2, duration_s=0.6)
        entries = generate_synthetic_corpus(recipe, tmp_path / "c")
        assert len(entries) == 6
        assert {e.gold for e in entries} == set(CLASSES)
        loaded = load_manifest(tmp_path / "c" / "manifest.csv")
        assert loaded == entries

    def test_blend_changes_samples(self, tmp_path):
        pure = generate_synthetic_corpus(
            SynthRecipe(seed=4, n_per_class=2, duration_s=0.6, overlap=0.0),
            tmp_path / "pure")
        mixed = generate_synthetic_corpus(
            SynthRecipe(seed=4, n_per_class=2, duration_s=0.6, overlap=0.5),
            tmp_path / "mixed")
        by_id_pure = {e.sample_id: e for e in pure}
        for e in mixed:
            same = (Path(e.audio_path).read_bytes()
                    == Path(by_id_pure[e.sample_id].audio_path).read_bytes())
            if e.gold == "calm" or e.sample_id.endswith("_001"):
                assert same          # unblended samples are untouched
            else:
                assert not same      # first blended sample per class differs

    def test_peak_reference_sample(self, tmp_path):
        from serhybrid.audio_io import load_audio
        recipe = SynthRecipe(seed=4, n_per_class=1, duration_s=0.6)
        entries = generate_synthetic_corpus(recipe, tmp_path / "peak")
        for e in entries:
            signal = load_audio(e.audio_path)
            peak = float(np.max(np.abs(signal.samples)))
            assert abs(float(signal.samples[0]) - peak) < 1e-9
