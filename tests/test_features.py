"""Frame-level extraction, aggregation, and corpus statistics."""

import json
import math
import os

import numpy as np
import pytest

import oracles
from serhybrid.audio_io import AudioSignal, load_audio, standardize
from serhybrid.errors import ConfigError, DataError
from serhybrid.features import (DIM_INDEX, DIMENSIONS, N_MFCC, UNVOICED,
                                CorpusStats,
                                aggregate, describe, estimate_pitch,
                                extract_series, frame_lengths, frame_matrix,
                                frame_signal, level_for_z, mel_filterbank, mfcc,
                                read_features_csv, rms_energy, write_features_csv)

SR = 16000

PINNED = os.path.join(os.path.dirname(__file__), "data", "pinned_features.json")


def _tone(freq, amp=0.5, duration_s=1.0):
    t = np.arange(int(duration_s * SR)) / SR
    return amp * np.sin(2 * np.pi * freq * t)


def vec(**overrides):
    values = np.zeros(len(DIMENSIONS))
    for name, value in overrides.items():
        values[DIM_INDEX[name]] = value
    return values


class TestFraming:
    def test_frame_count_formula(self):
        # 25 ms / 10 ms at 16 kHz: frame 400 samples, hop 160
        for n in (400, 401, 559, 560, 16000):
            frames = frame_signal(AudioSignal(np.zeros(n), SR))
            assert frames.shape == (1 + (n - 400) // 160, 400)

    @pytest.mark.parametrize("sample_rate,frame_len,hop_len", [
        (16000, 400, 160), (8000, 200, 80), (44100, 1102, 441), (11025, 276, 110),
    ])
    def test_frame_lengths(self, sample_rate, frame_len, hop_len):
        # 25 ms and 10 ms rounded to the nearest sample, ties to even:
        # 1102.5 -> 1102, 275.625 -> 276
        assert frame_lengths(sample_rate) == (frame_len, hop_len)
        frames = frame_signal(AudioSignal(np.zeros(3 * frame_len), sample_rate))
        assert frames.shape == (1 + 2 * frame_len // hop_len, frame_len)

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="signal has 399 samples, frame needs 400"):
            frame_signal(AudioSignal(np.zeros(399), SR))

    def test_frame_matrix_rows_and_short_input(self):
        x = np.arange(1000, dtype=np.float64)
        frames = frame_matrix(x, 400, 160)
        assert frames.shape == (4, 400)
        for k, row in enumerate(frames):
            assert np.array_equal(row, x[160 * k:160 * k + 400])
        assert np.array_equal(frame_signal(AudioSignal(x, SR)), frames)
        assert frame_matrix(x[:399], 400, 160).shape == (0, 400)

    @pytest.mark.parametrize("n,frame_len,hop_len", [
        (1000, 400, 160), (400, 400, 160), (559, 400, 160), (50, 7, 3), (9, 1, 1),
    ])
    def test_frame_matrix_is_a_read_only_view(self, n, frame_len, hop_len):
        x = np.random.default_rng(n).normal(size=n)
        frames = frame_matrix(x, frame_len, hop_len)
        n_frames = 1 + (n - frame_len) // hop_len
        idx = np.arange(frame_len)[None, :] + hop_len * np.arange(n_frames)[:, None]
        assert np.array_equal(frames, x[idx])
        assert not frames.flags.writeable
        assert np.shares_memory(frames, x)

    def test_rms_energy_oracle(self):
        assert rms_energy([[3.0, 4.0]]) == pytest.approx([math.sqrt(12.5)])
        assert rms_energy(np.zeros((1, 10))).tolist() == [0.0]
        rows = rms_energy(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(rows, [math.sqrt(12.5), 0.0])


class TestPitch:
    @pytest.mark.parametrize("freq", [80.0, 150.0, 220.0, 350.0])
    def test_tone_frames_within_two_hz(self, freq):
        frame = _tone(freq)[:400]
        assert abs(estimate_pitch([frame], SR)[0] - freq) <= 2.0

    def test_zeros_unvoiced(self):
        assert math.isnan(estimate_pitch(np.zeros((1, 400)), SR)[0])

    @pytest.mark.parametrize("level", [0.3, 1e-3])
    def test_dc_only_frame_unvoiced(self, level):
        # the mean of these levels is not exact in floating point, so mean
        # removal leaves a constant residual of about one ulp
        assert math.isnan(estimate_pitch(np.full((1, 400), level), SR)[0])
        pitch = estimate_pitch(np.stack([np.full(400, level), _tone(150.0)[:400]]), SR)
        assert np.isnan(pitch[0]) and abs(pitch[1] - 150.0) <= 2.0

    def test_white_noise_unvoiced(self):
        rng = np.random.default_rng(42)
        assert math.isnan(estimate_pitch(rng.normal(size=(1, 400)), SR)[0])

    def test_unvoiced_sentinel_is_nan(self):
        assert math.isnan(UNVOICED)


class TestMel:
    @pytest.mark.parametrize("nfft", [256, 512, 1024])
    @pytest.mark.parametrize("sample_rate", [8000, 16000, 44100])
    def test_filterbank_equals_per_band_oracle(self, nfft, sample_rate):
        assert np.array_equal(mel_filterbank(nfft, sample_rate),
                              oracles.mel_filterbank_per_band(nfft, sample_rate))

    def test_filterbank_shape_and_support(self):
        fb = mel_filterbank(512, SR)
        assert fb.shape == (26, 257)
        assert np.all(fb >= 0.0)
        # interior bins are covered by at least one filter
        assert np.all(fb.sum(axis=0)[5:-5] > 0.0)

    def test_mfcc_of_silence_hits_log_floor(self):
        coeffs = mfcc(np.zeros(400), SR)
        assert len(coeffs) == N_MFCC
        # constant log-mel at the floor: all energy in coefficient 0
        assert coeffs[0] == pytest.approx(math.sqrt(26) * math.log(1e-10))
        assert np.max(np.abs(coeffs[1:])) < 1e-9


class TestExtractSeries:
    def test_streams_aligned(self):
        pitch, energy, mfccs = extract_series(AudioSignal(_tone(150.0), SR))
        n = len(pitch)
        assert len(energy) == n
        assert mfccs.shape == (n, N_MFCC)

    def test_tone_pitch_and_energy(self):
        pitch, energy, _ = extract_series(AudioSignal(_tone(220.0, amp=0.4), SR))
        voiced = pitch[~np.isnan(pitch)]
        assert voiced.size / len(pitch) > 0.95
        assert np.all(np.abs(voiced - 220.0) <= 2.0)
        assert np.allclose(energy, 0.4 / math.sqrt(2), atol=1e-3)

    @pytest.mark.parametrize("gain", [0.3, 0.5, 0.9])
    def test_gain_keeps_the_vector_within_rounding(self, separable_corpus, gain):
        # a metamorphic relation: standardize peak-normalizes, so a clip
        # scaled without clipping gives its vector again up to rounding
        entries = separable_corpus.entries[::5]
        assert len(entries) == 30
        for entry in entries:
            signal = load_audio(entry.audio_path)
            scaled = AudioSignal(signal.samples * gain, signal.sample_rate)
            np.testing.assert_allclose(aggregate(*extract_series(standardize(scaled))),
                                       separable_corpus.features[entry.sample_id],
                                       rtol=1e-12, atol=1e-12, err_msg=entry.sample_id)


def _assert_matches_per_frame(frames):
    """Batched pitch and MFCC against the per-frame references."""
    pitch = estimate_pitch(frames, SR)
    ref_pitch = np.array([oracles.pitch_direct(f, SR) for f in frames])
    assert pitch.shape == (len(frames),)
    assert np.array_equal(np.isnan(pitch), np.isnan(ref_pitch))
    np.testing.assert_allclose(pitch, ref_pitch, rtol=1e-9)
    windowed = frames * np.hanning(frames.shape[1])
    coeffs = mfcc(windowed, SR)
    assert coeffs.shape == (len(frames), N_MFCC)
    np.testing.assert_allclose(coeffs, oracles.mfcc_direct(list(windowed), SR),
                               rtol=1e-9, atol=1e-9)
    # a one-row matrix gives one pitch, and one frame 13 coefficients
    for k in (0, len(frames) - 1):
        single = estimate_pitch(frames[k:k + 1], SR)
        assert single.shape == (1,)
        np.testing.assert_allclose(single[0], pitch[k], rtol=1e-12)
        np.testing.assert_allclose(mfcc(windowed[k], SR), coeffs[k],
                                   rtol=1e-12, atol=1e-12)
    return pitch


class TestBatchedParity:
    @pytest.mark.parametrize("sample_id", ["angry_000", "calm_050", "panic_099"])
    def test_overlap_corpus_clips(self, overlap_corpus, sample_id):
        entry = next(e for e in overlap_corpus.entries if e.sample_id == sample_id)
        frames = frame_signal(standardize(load_audio(entry.audio_path)))
        _assert_matches_per_frame(frames)

    @pytest.mark.parametrize("freq", [60.0, 80.0, 350.0, 400.0])
    def test_tones(self, freq):
        frames = frame_signal(AudioSignal(_tone(freq, duration_s=0.5), SR))
        pitch = _assert_matches_per_frame(frames)
        assert not np.any(np.isnan(pitch))

    def test_white_noise(self):
        rng = np.random.default_rng(42)
        frames = frame_signal(AudioSignal(rng.normal(size=SR // 4), SR))
        _assert_matches_per_frame(frames)

    def test_degenerate_frames(self):
        click = np.zeros(400)
        click[123] = 0.9
        frames = np.stack([np.zeros(400), np.full(400, 0.25), click])
        pitch = _assert_matches_per_frame(frames)
        assert np.isnan(pitch[0]) and np.isnan(pitch[1])

    @pytest.mark.parametrize("zeros,freq", [(170, 200.0), (140, 123.0), (150, 277.0)])
    def test_leading_silence(self, zeros, freq):
        # a zero-mean tone after exact zeros: at lags past 400 - zeros the
        # leading window holds only samples at rounding level, where the
        # FFT's error swamps r[t] and read about 60 Hz until those lags were
        # summed directly
        t = np.arange(400 - zeros) / SR
        tone = 0.5 * np.sin(2 * np.pi * freq * t)
        frame = np.concatenate([np.zeros(zeros), tone - tone.mean()])
        pitch = _assert_matches_per_frame(frame[None])
        np.testing.assert_allclose(pitch, [freq], rtol=1e-3)

    @pytest.mark.parametrize("sample_rate,frame_ms", [
        (16000, 10.0), (16000, 12.5), (16000, 16.75), (8000, 10.0), (8000, 25.0),
        (44100, 25.0),
    ])
    def test_lag_window_edges(self, sample_rate, frame_ms):
        # at 10, 12.5 and 16.75 ms (160, 200 and 268 samples at 16 kHz) the
        # frame is shorter than ceil(sr / fmin) plus one fmax period, so the
        # lag window ends at n - lag_min instead of at ceil(sr / fmin)
        t = np.arange(int(0.3 * sample_rate)) / sample_rate
        rng = np.random.default_rng(7)
        x = np.concatenate([0.5 * np.sin(2 * np.pi * 130.0 * t),
                            0.3 * rng.normal(size=t.size),
                            0.4 * np.sin(2 * np.pi * (110.0 + 200.0 * t) * t)])
        # frames every 10 ms
        frames = frame_matrix(x, int(round(frame_ms * sample_rate / 1000.0)), sample_rate // 100)
        pitch = estimate_pitch(frames, sample_rate)
        ref = np.array([oracles.pitch_direct(f, sample_rate) for f in frames])
        assert np.array_equal(np.isnan(pitch), np.isnan(ref))
        assert not np.all(np.isnan(pitch))
        np.testing.assert_allclose(pitch, ref, rtol=1e-9)

    @pytest.mark.parametrize("frame_len", [200, 268])
    def test_near_zero_edge_sample(self, frame_len):
        # whole periods from phase 0 leave x[0] at rounding level after mean
        # removal; at lag n - 1, inside the lag window when n_lags == n, the
        # FFT's rounding error swamped that one-sample overlap and won the
        # peak search
        t = np.arange(frame_len) / SR
        frames = np.stack([np.sin(2 * np.pi * k * SR / frame_len * t) for k in (2, 3, 4, 5)])
        pitch = estimate_pitch(frames, SR)
        ref = np.array([oracles.pitch_direct(f, SR) for f in frames])
        assert not np.any(np.isnan(ref))
        np.testing.assert_allclose(pitch, ref, rtol=1e-9)

    def test_short_frames_keep_an_fmax_period_of_overlap(self):
        # a lag window reaching lag n - 1 left a one-sample overlap, whose
        # normalized ACF of +1 won the search and read 16000/199 = 80.4 Hz
        t = np.arange(200) / SR
        rng = np.random.default_rng(3)
        frames = np.stack([np.sin(2 * np.pi * f * t) + noise * rng.normal(size=t.size)
                           for f in (120.0, 240.0, 390.0) for noise in (0.3, 3.0)])
        pitch = estimate_pitch(frames, SR)
        ref = np.array([oracles.pitch_direct(f, SR) for f in frames])
        np.testing.assert_allclose(pitch, ref, rtol=1e-9)
        assert not np.any(np.abs(pitch - SR / 199) < 5.0)
        np.testing.assert_allclose(pitch[::2], [120.0, 240.0, 390.0], rtol=0.05)

    def test_pinned_vectors(self, overlap_corpus):
        with open(PINNED) as fh:
            pinned = json.load(fh)["vectors"]
        for sample_id, values in pinned.items():
            np.testing.assert_allclose(overlap_corpus.features[sample_id],
                                       values, rtol=1e-9, atol=0.0)


class TestAggregate:
    def _series(self, pitch, energy):
        return (np.array(pitch, dtype=np.float64), np.array(energy, dtype=np.float64),
                np.zeros((len(pitch), N_MFCC)))

    def _aggregate(self, pitch, energy):
        return dict(zip(DIMENSIONS, aggregate(*self._series(pitch, energy))))

    def test_hand_computed_statistics(self):
        out = self._aggregate([100.0, 200.0, UNVOICED], [1.0, 2.0, 3.0])
        assert out["pitch_mean"] == 150.0
        assert out["pitch_std"] == 50.0
        assert out["pitch_min"] == 100.0
        assert out["pitch_max"] == 200.0
        assert out["pitch_range"] == 100.0
        assert out["voiced_ratio"] == pytest.approx(2.0 / 3.0)
        assert out["energy_mean"] == 2.0
        assert out["energy_std"] == pytest.approx(math.sqrt(2.0 / 3.0))
        assert out["energy_min"] == 1.0
        assert out["energy_max"] == 3.0
        assert out["energy_range"] == 2.0

    def test_all_unvoiced_zeroes_pitch_block(self):
        out = self._aggregate([UNVOICED, UNVOICED], [1.0, 1.0])
        for dim in ("pitch_mean", "pitch_std", "pitch_min", "pitch_max",
                    "pitch_range", "voiced_ratio"):
            assert out[dim] == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(DataError, match="cannot aggregate an empty frame series"):
            aggregate(*self._series([], []))


class TestFeatureVector:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = [(f"s{i}", rng.normal(size=len(DIMENSIONS))) for i in range(5)]
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        loaded = read_features_csv(path)
        for sid, v in rows:
            assert np.array_equal(loaded[sid], v)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(DataError, match="header"):
            read_features_csv(path)

    @pytest.mark.parametrize("change", ["swap", "add"])
    def test_csv_header_must_be_the_feature_columns(self, tmp_path, change):
        # each header names every column once, but not as written
        path = tmp_path / "features.csv"
        write_features_csv(path, [("a", vec())])
        header, row = (line.split(",") for line in path.read_text().splitlines())
        if change == "swap":
            header[3], header[4] = header[4], header[3]
        else:
            header, row = header + ["extra"], row + ["0.0"]
        path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
        with pytest.raises(DataError) as err:
            read_features_csv(path)
        assert str(err.value) == f"{path}: unexpected feature CSV header"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_value_rejected(self, tmp_path, value):
        # a NaN row once reached refine, which ended in a traceback
        path = tmp_path / "features.csv"
        write_features_csv(path, [("a", vec()), ("b", vec())])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=r"features.csv line 3: feature vector has non-finite values"):
            read_features_csv(path)

    def test_csv_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, [("a", vec())])
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",loud"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"features.csv line 2: feature vector must be numbers"):
            read_features_csv(path)

    def test_csv_repeated_sample_id_rejected(self, tmp_path):
        # the later row once replaced the earlier one without a word
        path = tmp_path / "features.csv"
        write_features_csv(path, [("a", vec()), ("b", vec()), ("a", vec(pitch_mean=1.0))])
        with pytest.raises(DataError, match=r"features.csv line 4: duplicate sample_id 'a'"):
            read_features_csv(path)


class TestCorpusStats:
    def test_mean_std_and_zscore(self):
        vectors = [vec(pitch_mean=100.0), vec(pitch_mean=200.0)]
        stats = CorpusStats.from_vectors(vectors)
        assert stats.mean[DIM_INDEX["pitch_mean"]] == 150.0
        assert stats.std[DIM_INDEX["pitch_mean"]] == 50.0
        assert stats.transform(vec(pitch_mean=200.0))[DIM_INDEX["pitch_mean"]] == 1.0

    def test_zero_rows_rejected(self):
        # stacking no rows once ended in a ValueError, and a matrix of zero
        # rows gave NaN statistics
        with pytest.raises(DataError, match="corpus stats need at least one feature row"):
            CorpusStats.from_vectors([])
        with pytest.raises(DataError, match="corpus stats need at least one feature row"):
            CorpusStats.from_matrix(np.empty((0, len(DIMENSIONS))))

    def test_zero_variance_flagged_and_clamped(self):
        stats = CorpusStats.from_vectors([vec(pitch_mean=1.0),
                                          vec(pitch_mean=2.0)])
        assert "energy_mean" in stats.zero_variance
        assert "pitch_mean" not in stats.zero_variance
        assert np.all(stats.std >= 1e-8)
        assert np.all(np.isfinite(stats.transform(vec())))

    def test_json_roundtrip_exact(self):
        rng = np.random.default_rng(10)
        stats = CorpusStats.from_vectors(
            [rng.normal(size=len(DIMENSIONS)) for _ in range(4)])
        loaded = CorpusStats.from_json(stats.to_json())
        assert np.array_equal(loaded.mean, stats.mean)
        assert np.array_equal(loaded.std, stats.std)
        assert loaded.zero_variance == stats.zero_variance

    def test_json_roundtrip_keeps_extreme_floats(self):
        # JSON numbers read back bit for bit, signed zero and subnormals too
        n = len(DIMENSIONS)
        extremes = [-0.0, 5e-324, 1.7976931348623157e308]
        stats = CorpusStats(mean=np.resize(extremes, n), std=np.resize(extremes[1:], n),
                            zero_variance=())
        doc = json.loads(stats.to_json())
        assert doc["mean"][:3] == extremes and all(type(v) is float for v in doc["mean"])
        loaded = CorpusStats.from_json(stats.to_json())
        assert loaded.mean.tobytes() == stats.mean.tobytes()
        assert loaded.std.tobytes() == stats.std.tobytes()

    def test_stats_file_is_the_scaler_object(self):
        stats = CorpusStats.from_vectors([vec(), vec(pitch_mean=1.0)])
        assert json.loads(stats.to_json()) == {"schema": "serhybrid-stats-v2", **stats.to_dict()}

    def test_missing_dimension_rejected(self):
        # one number per dimension, in DIMENSIONS order: a short list is rejected
        stats = CorpusStats.from_vectors([vec(), vec(pitch_mean=1.0)])
        doc = json.loads(stats.to_json())
        del doc["mean"][DIM_INDEX["pitch_std"]]
        with pytest.raises(ConfigError, match=r"^corpus stats: mean must be a list of shape \(37,\)$"):
            CorpusStats.from_json(json.dumps(doc))

    def test_one_vector_stats_load(self):
        # every std is clamped to 1e-8 and every dimension flagged
        stats = CorpusStats.from_vectors([vec(pitch_mean=1.0)])
        loaded = CorpusStats.from_json(stats.to_json())
        assert loaded.zero_variance == DIMENSIONS
        assert np.array_equal(loaded.std, stats.std)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(schema="x"), "expected schema 'serhybrid-stats-v2', got 'x'"),
        (lambda doc: doc.pop("schema"), "expected schema 'serhybrid-stats-v2', got None"),
        (lambda doc: doc.update(zero_variance=5), "zero_variance must be a list, got 5"),
        (lambda doc: doc.update(zero_variance=["pitch_sdt"]),
         "zero_variance must list feature dimensions"),
        (lambda doc: doc.pop("zero_variance"), "zero_variance is missing"),
        (lambda doc: doc.update(std=[0.0] * len(DIMENSIONS)), "std must be positive"),
        (lambda doc: doc["std"].__setitem__(1, -1.0), "std must be positive"),
        (lambda doc: doc["mean"].__setitem__(1, math.nan), "mean must be finite numbers, got nan"),
        (lambda doc: doc["mean"].__setitem__(1, [1.0]),
         r"mean must be finite numbers, got \[1.0\]"),
        (lambda doc: doc["mean"].__setitem__(1, 10 ** 400),
         "mean must be finite numbers, got 10{400}"),
        # each of these once loaded: a boolean as 1.0, a numeric string as its number
        (lambda doc: doc["mean"].__setitem__(1, True), "mean must be finite numbers, got True"),
        (lambda doc: doc["mean"].__setitem__(1, "0.5"), "mean must be finite numbers, got '0.5'"),
        (lambda doc: doc["std"].__setitem__(1, True), "std must be finite numbers, got True"),
        (lambda doc: doc["std"].__setitem__(1, "0.5"), "std must be finite numbers, got '0.5'"),
    ], ids=["schema-x", "no-schema", "zero-variance-5", "zero-variance-typo",
            "no-zero-variance", "std-all-zero", "std-negative", "mean-nan",
            "mean-list", "mean-overflows", "mean-true", "mean-numeric-string",
            "std-true", "std-numeric-string"])
    def test_malformed_stats_rejected(self, edit, message):
        doc = json.loads(CorpusStats.from_vectors([vec(), vec(pitch_mean=1.0)]).to_json())
        edit(doc)
        with pytest.raises(ConfigError, match=f"^stats.json:? {message}$"):
            CorpusStats.from_json(json.dumps(doc), where="stats.json")

    @pytest.mark.parametrize("error", [ConfigError, DataError])
    def test_from_dict_raises_the_callers_error(self, error):
        n = len(DIMENSIONS)
        with pytest.raises(error, match="^scaler: std must be positive$"):
            CorpusStats.from_dict({"mean": [0.0] * n, "std": [0.0] * n, "zero_variance": []},
                                "scaler", error)


class TestDescribe:
    @pytest.mark.parametrize("z,level", [
        (-1.6, "very low"), (-1.5, "low"), (-0.6, "low"), (-0.5, "moderate"),
        (0.0, "moderate"), (0.5, "moderate"), (0.6, "high"), (1.5, "high"),
        (1.6, "very high"),
    ])
    def test_level_boundaries(self, z, level):
        assert level_for_z(z) == level

    def test_summary_block_format(self):
        stats = CorpusStats(mean=np.zeros(len(DIMENSIONS)),
                            std=np.ones(len(DIMENSIONS)), zero_variance=())
        profiles = describe([vec(), vec(pitch_std=2.0)], stats)
        assert len(profiles) == 2
        lines = profiles[1].splitlines()
        assert lines[0] == "Acoustic profile of the utterance:"
        assert len(lines) == 6
        assert "- pitch variability [pitch_std]: very high (z=+2.00)" in lines
        assert profiles[0] == describe([vec()], stats)[0]
        assert describe([], stats) == []

    def test_deterministic(self):
        stats = CorpusStats(mean=np.zeros(len(DIMENSIONS)),
                            std=np.ones(len(DIMENSIONS)), zero_variance=())
        v = vec(energy_mean=1.2)
        assert describe([v], stats) == describe([v], stats)

    def test_stats_shape_checked(self):
        bad = CorpusStats(mean=np.zeros(3), std=np.ones(3), zero_variance=())
        with pytest.raises(ConfigError, match="corpus stats do not cover the feature schema"):
            describe([vec()], bad)
