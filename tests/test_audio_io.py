"""WAV I/O, standardization, voice activity detection, segmentation."""

import gc
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

import serhybrid
from serhybrid import audio_io
from serhybrid.audio_io import (TARGET_PEAK, TARGET_RATE, AudioSignal,
                                _resample_poly, detect_voice_activity,
                                load_audio, save_wav, segment, standardize)
from serhybrid.errors import DataError

from oracles import vad_direct

SR = 16000


def _tone(freq=150.0, amp=0.5, duration_s=1.0, sr=SR):
    t = np.arange(int(duration_s * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestLoadSave:
    def test_pcm16_roundtrip(self, tmp_path):
        x = _tone()
        path = tmp_path / "tone.wav"
        save_wav(path, AudioSignal(x, SR))
        loaded = load_audio(path)
        assert loaded.sample_rate == SR
        assert loaded.samples.shape == x.shape
        assert np.max(np.abs(loaded.samples - x)) < 1.0 / 32767.0

    @pytest.mark.parametrize("dtype,raw,expected", [
        (np.int16, 16384, 0.5),
        (np.int32, 1073741824, 0.5),
        (np.uint8, 192, 0.5),
        (np.float32, 0.5, 0.5),
        (np.float64, 0.5, 0.5),
    ])
    def test_dtype_scaling(self, tmp_path, dtype, raw, expected):
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, SR, np.full(64, raw, dtype=dtype))
        loaded = load_audio(path)
        assert abs(float(loaded.samples[0]) - expected) < 1e-6

    def test_stereo_loads_channel_major(self, tmp_path):
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, SR, np.full((100, 2), 8192, dtype=np.int16))
        loaded = load_audio(path)
        assert loaded.samples.shape == (2, 100)
        assert abs(float(loaded.samples[0, 0]) - 0.25) < 1e-9

    def test_three_channels_rejected(self, tmp_path):
        path = tmp_path / "tri.wav"
        scipy.io.wavfile.write(path, SR, np.zeros((100, 3), dtype=np.int16))
        with pytest.raises(DataError, match=r"3 channels \(max 2\)"):
            load_audio(path)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(DataError, match="not a readable PCM WAV file"):
            load_audio(path)

    @pytest.mark.parametrize("rate", [0, 1, 7999, 384001, 2**31 - 1])
    def test_sample_rate_outside_range_rejected(self, tmp_path, rate):
        # rate 0 once ended in a ZeroDivisionError, and rate 1 turned 64
        # samples into a million
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, rate, np.zeros(64, dtype=np.int16))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: sample rate {rate} Hz "
                                            "is outside 8000-384000 Hz$"):
            load_audio(path)

    @pytest.mark.parametrize("rate", [8000, 384000])
    def test_sample_rate_range_is_inclusive(self, tmp_path, rate):
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, rate, np.zeros(64, dtype=np.int16))
        assert load_audio(path).sample_rate == rate

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_float_sample_rejected(self, tmp_path, dtype, bad):
        # a NaN sample once passed features, which wrote a CSV its reader rejects
        path = tmp_path / "x.wav"
        data = np.zeros((64, 2), dtype=dtype)
        data[10, 1] = bad
        scipy.io.wavfile.write(path, SR, data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite sample value$"):
            load_audio(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_audio(tmp_path / "absent.wav")


class TestResampler:
    """The numpy polyphase resampler against scipy's, the filter it copies."""

    @pytest.mark.parametrize("up,down", [(160, 441), (1, 2), (2, 1), (160, 147), (3, 2)])
    @pytest.mark.parametrize("n", [1, 7, 441, 10007, 882000])
    def test_matches_scipy_resample_poly(self, up, down, n):
        import scipy.signal
        x = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
        ref = scipy.signal.resample_poly(x, up, down)
        got = _resample_poly(x, up, down)
        assert len(got) == len(ref) == -(-n * up // down)
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestStandardize:
    def test_peak_lands_exactly_on_target(self):
        out = standardize(AudioSignal(_tone(amp=0.3), SR))
        assert float(np.max(np.abs(out.samples))) == TARGET_PEAK

    def test_idempotent_bit_for_bit(self):
        once = standardize(AudioSignal(_tone(amp=0.3), SR))
        twice = standardize(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_resamples_to_target_rate(self):
        x = np.sin(2 * np.pi * 100 * np.arange(8000) / 8000)
        out = standardize(AudioSignal(x, 8000))
        assert out.sample_rate == TARGET_RATE
        assert out.num_samples == 16000
        assert np.array_equal(out.samples, standardize(out).samples)

    def test_scipy_signal_never_loaded(self):
        # importing the CLI and resampling 44.1 kHz audio leave scipy.signal
        # (about 1 s and 46 MB to import) unloaded
        code = """
import sys
import numpy as np
import serhybrid.cli
from serhybrid.audio_io import AudioSignal, standardize
out = standardize(AudioSignal(np.sin(np.arange(44101) / 7.0), 44100))
assert out.num_samples == -(-44101 * 160 // 441), out.num_samples
assert "scipy.signal" not in sys.modules, "scipy.signal loaded"
"""
        src = os.path.dirname(os.path.dirname(serhybrid.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("channels", [1, 2])
    def test_downmix_bit_identical_to_channel_mean(self, channels):
        # channel-major over interleaved storage, as load_audio returns it
        rng = np.random.default_rng(channels)
        x = rng.uniform(-1.0, 1.0, size=(4001, channels)).T
        mixed = standardize(AudioSignal(x, SR))
        meaned = standardize(AudioSignal(x.mean(axis=0), SR))
        assert np.array_equal(mixed.samples, meaned.samples)

    def test_stereo_mixes_to_mono(self):
        left = _tone(amp=0.2)
        right = _tone(amp=0.6)
        out = standardize(AudioSignal(np.stack([left, right]), SR))
        assert out.samples.ndim == 1
        # mixdown is the channel mean, then rescaled; shape is the average
        mix = (left + right) / 2.0
        expected = mix / np.max(np.abs(mix)) * TARGET_PEAK
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_all_zero_passed_through(self):
        # an all-zero signal has no peak to normalize to
        out = standardize(AudioSignal(np.zeros(256), SR))
        assert out.sample_rate == SR
        assert np.array_equal(out.samples, np.zeros(256))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot standardize an empty signal"):
            standardize(AudioSignal(np.empty(0), SR))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=200))
    def test_idempotence_property(self, values):
        signal = AudioSignal(np.array(values, dtype=np.float64), SR)
        once = standardize(signal)
        assert np.array_equal(once.samples, standardize(once).samples)


class TestVad:
    def test_all_zero_signal_has_no_voice(self):
        assert detect_voice_activity(AudioSignal(np.zeros(SR), SR)) == []

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot run VAD on an empty signal"):
            detect_voice_activity(AudioSignal(np.empty(0), SR))

    def test_tone_burst_located(self):
        x = np.zeros(2 * SR)
        x[SR // 2:SR // 2 + SR] = _tone()
        intervals = detect_voice_activity(AudioSignal(x, SR))
        assert len(intervals) == 1
        start, end = intervals[0]
        assert start <= SR // 2
        assert end >= SR // 2 + SR - 400

    def test_hangover_extends_intervals(self, monkeypatch):
        x = np.zeros(2 * SR)
        x[SR // 2:SR // 2 + SR] = _tone()
        sig = AudioSignal(x, SR)
        with_h = detect_voice_activity(sig)
        monkeypatch.setattr(audio_io, "VAD_HANGOVER_FRAMES", 0)
        without = detect_voice_activity(sig)
        assert with_h[0][1] > without[0][1]

    def test_intervals_sorted_and_disjoint(self):
        rng = np.random.default_rng(9)
        x = np.zeros(3 * SR)
        for start in (0, SR, 2 * SR + SR // 2):
            n = SR // 3
            x[start:start + n] = 0.7 * rng.normal(size=n)
        intervals = detect_voice_activity(AudioSignal(x, SR))
        for (start, end), (next_start, _) in zip(intervals, intervals[1:]):
            assert start < end < next_start


def _levels(db, hop=160):
    """A square wave whose level, in dB re full scale, is set per hop-long block."""
    amp = np.repeat(10.0 ** (np.asarray(db, dtype=np.float64) / 20.0), hop)
    return amp * np.where(np.arange(amp.size) % 2, -1.0, 1.0)


def _vad_cases():
    rng = np.random.default_rng(17)
    cases = {f"random-{k}": (_levels(rng.uniform(-70.0, 0.0, 200))[:-int(rng.integers(160))], {})
             for k in range(3)}
    cases.update({
        "all-voiced": (_levels(np.zeros(100)), {}),
        "none-voiced": (_levels(rng.uniform(-70.0, 0.0, 100)), {"energy_floor_db": 1.0}),
        "alternating-runs": (_levels(np.tile([0.0] * 4 + [-80.0] * 4, 12)), {}),
        # a frame spans 2.5 hops, so runs of voiced frames one unvoiced frame
        # apart overlap and are joined, and runs two frames apart are not;
        # no run can start exactly where the one before it ends. Quiet
        # stretches of 400 and of 560 samples every 1280, from sample 0,
        # hold one and two unvoiced frames
        "one-frame-gaps": (_levels(np.tile([-80.0] * 5 + [0.0] * 11, 8), hop=80), {}),
        "two-frame-gaps": (_levels(np.tile([-80.0] * 7 + [0.0] * 9, 8), hop=80), {}),
        "shorter-than-a-frame": (_levels([-3.0]), {}),
    })
    return cases


VAD_CASES = _vad_cases()


class TestVadOracle:
    """The array VAD finds the same intervals as the frame-by-frame loops,
    at the module's VAD constants and at others patched in."""

    @pytest.mark.parametrize("hangover", [0, 1, 5])
    @pytest.mark.parametrize("case", sorted(VAD_CASES))
    def test_matches_frame_loops(self, monkeypatch, case, hangover):
        x, kwargs = VAD_CASES[case]
        monkeypatch.setattr(audio_io, "VAD_HANGOVER_FRAMES", hangover)
        if "energy_floor_db" in kwargs:
            monkeypatch.setattr(audio_io, "VAD_FLOOR_DB", kwargs["energy_floor_db"])
        got = detect_voice_activity(AudioSignal(x, SR))
        assert got == vad_direct(x, SR, hangover_frames=hangover, **kwargs)
        assert all(type(v) is int for pair in got for v in pair)
        if case == "all-voiced":
            assert len(got) == 1 and got[0][0] == 0
        if case == "none-voiced":
            assert got == []
        if hangover == 0 and case.endswith("-frame-gaps"):
            assert len(got) == (1 if case == "one-frame-gaps" else 8)


class TestSegment:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6000), max_samples=st.integers(2, 3000),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_long_interval_split_under_max(self, n, max_samples, cuts, seed):
        # every split point falls strictly inside its interval, whether it
        # is the lowest-energy frame start or the midpoint, so the pieces
        # tile each interval in order and none is longer than max_len
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * rng.uniform(0.0, 1.0, size=n)
        points = sorted({int(c * n) for c in cuts})
        intervals = list(zip(points[::2], points[1::2]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(audio_io, "MAX_SEGMENT_S", max_samples / SR)
            mp.setattr(audio_io, "MIN_SEGMENT_S", 0.0)
            max_len = int(audio_io.MAX_SEGMENT_S * SR)
            pieces = iter(segment(AudioSignal(x, SR), intervals))
        for lo, hi in intervals:
            at = lo
            while at < hi:
                piece = next(pieces).samples
                assert 1 <= len(piece) <= max_len
                assert np.array_equal(piece, x[at:at + len(piece)])
                at += len(piece)
            assert at == hi
        assert next(pieces, None) is None

    def test_signal_freed_without_a_collection(self, monkeypatch):
        # a reference cycle in segment would keep the whole signal alive
        # until the garbage collector next ran
        monkeypatch.setattr(audio_io, "MAX_SEGMENT_S", 2.0)
        x = _tone(duration_s=10.0)
        alive = weakref.ref(x)
        intervals = [(0, 5 * SR), (6 * SR, 10 * SR)]  # each split in pieces
        expected = np.concatenate([x[lo:hi] for lo, hi in intervals])
        gc.disable()
        try:
            segments = segment(AudioSignal(x, SR), intervals)
            del x
            assert alive() is None
        finally:
            gc.enable()
        assert len(segments) >= 4
        assert np.array_equal(np.concatenate([s.samples for s in segments]), expected)

    def test_short_pieces_dropped(self):
        x = _tone(duration_s=0.3)
        sig = AudioSignal(x, SR)
        segments = segment(sig, [(0, len(x))])
        assert segments == []

    def test_offsets_match_parent(self):
        x = _tone(duration_s=1.0)
        sig = AudioSignal(x, SR)
        segments = segment(sig, [(0, len(x))])
        assert len(segments) == 1
        seg = segments[0]
        assert seg.sample_rate == SR
        assert np.array_equal(seg.samples, x)
