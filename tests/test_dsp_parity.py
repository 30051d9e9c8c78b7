"""The blocked frame DSP, which reuses per-thread scratch buffers, and the
in-place synthesizer, held bit for bit to their earlier forms in
tests/oracles.py."""

import sys
import threading

import numpy as np
import pytest

import oracles
from conftest import planted_recipe
from serhybrid import corpus
from serhybrid.audio_io import AudioSignal
from serhybrid.features import (BLOCK_ROWS, estimate_pitch, extract_series, frame_matrix,
                                mfcc, rms_energy)

SR = 16000


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _assert_same_streams(streams, expected):
    """(pitch, energy, mfcc) equal to the oracle's, element by element."""
    assert len(streams) == len(expected) == 3
    for got, want in zip(streams, expected):
        assert _same(got, want)


def _signal(rng, n):
    """Noise over a gliding tone, at a random level: voiced and unvoiced
    frames both."""
    t = np.arange(n) / SR
    tone = np.sin(2 * np.pi * (110.0 + 150.0 * t / max(t[-1], 1e-9)) * t)
    return rng.uniform(0.01, 1.0) * (tone + rng.uniform(0.0, 2.0) * rng.normal(size=n))


def _frames(rng, rows, frame_len=400, hop=160):
    return frame_matrix(_signal(rng, (rows - 1) * hop + frame_len), frame_len, hop)


def _assert_parity(frames, sample_rate=SR):
    assert _same(estimate_pitch(frames, sample_rate),
                 oracles.estimate_pitch_whole(frames, sample_rate))
    assert _same(rms_energy(frames), oracles.rms_energy_whole(frames))
    windowed = frames * np.hanning(frames.shape[1])
    assert _same(mfcc(windowed, sample_rate), oracles.mfcc_whole(windowed, sample_rate))


class TestFrameDsp:
    # 48 and 49 rows of 25-ms frames straddle the size at which numpy
    # starts to elide a whole-matrix temporary of the spectrum; a row's
    # result is the same on both sides (test_row_invariance)
    @pytest.mark.parametrize("rows", [1, 2, 48, 49, 198])
    @pytest.mark.parametrize("sample_rate,frame_len,hop", [
        (16000, 400, 160), (8000, 200, 80), (44100, 1102, 441)])
    def test_random_frames(self, rows, sample_rate, frame_len, hop):
        rng = np.random.default_rng([rows, sample_rate])
        _assert_parity(_frames(rng, rows, frame_len, hop), sample_rate)

    @pytest.mark.parametrize("rows", [1, 2, 17, 48])
    def test_row_invariance(self, rows):
        # a row's result does not depend on the rows computed beside it: the
        # leading rows of a 300-row matrix come out the same alone, inside 49
        # rows and inside all 300. With seed 7 every one of these slices holds
        # rows whose pitch takes other last bits in the other product order.
        frames = _frames(np.random.default_rng([7, 7]), 300)
        windowed = frames * np.hanning(frames.shape[1])
        for extract, x in [(lambda f: estimate_pitch(f, SR), frames), (rms_energy, frames),
                           (lambda f: mfcc(f, SR), windowed)]:
            alone = extract(x[:rows])
            assert _same(alone, extract(x[:49])[:rows])
            assert _same(alone, extract(x)[:rows])

    def test_dc_zero_and_too_short_rows(self):
        rng = np.random.default_rng(5)
        click = np.zeros(400)
        click[123] = 0.9
        rows = [np.zeros(400), np.full(400, 0.25), np.full(400, -1e-300), click,
                *_frames(rng, 4)]
        _assert_parity(np.stack(rows))
        _assert_parity(np.stack(rows[::-1]))
        # frames too short for one lag of the pitch window are all unvoiced
        short = _frames(rng, 7, frame_len=60, hop=40)
        assert np.all(np.isnan(estimate_pitch(short, SR)))
        _assert_parity(short)
        _assert_parity(np.empty((0, 400)))

    def test_one_frame(self):
        frame = _frames(np.random.default_rng(9), 1)[0] * np.hanning(400)
        assert _same(mfcc(frame, SR), oracles.mfcc_whole(frame, SR))

    @pytest.mark.parametrize("rows", [BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 37])
    def test_more_rows_than_one_block(self, rows):
        _assert_parity(_frames(np.random.default_rng(rows), rows))

    def test_clip_longer_than_one_block(self):
        signal = AudioSignal(_signal(np.random.default_rng(3), 7 * SR), SR)
        streams = extract_series(signal)
        assert len(streams[0]) > 2 * BLOCK_ROWS
        _assert_same_streams(streams, oracles.extract_series_whole(signal))

    def test_frame_counts_alternate_on_one_thread(self):
        # each call reuses buffers that the last call left larger, smaller
        # or of another frame length
        rng = np.random.default_rng(11)
        for rows, frame_len in [(300, 400), (3, 400), (198, 200), (1, 400), (513, 400),
                                (49, 1102), (48, 400), (198, 400)] * 2:
            _assert_parity(_frames(rng, rows, frame_len))

    def test_two_threads_at_once(self):
        # clips of 198, 37, 300, 2, 120 and 49 frames on each thread
        signals = [[AudioSignal(_signal(np.random.default_rng([k, j]), (rows - 1) * 160 + 400),
                                SR)
                    for j, rows in enumerate((198, 37, 300, 2, 120, 49))] for k in range(2)]
        start = threading.Barrier(2)
        results = [None, None]

        def run(k):
            start.wait()
            results[k] = [extract_series(signal) for signal in signals[k] * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for k in range(2):
            assert len(results[k]) == 3 * len(signals[k])
            for streams, signal in zip(results[k], signals[k] * 3):
                _assert_same_streams(streams, oracles.extract_series_whole(signal))


class TestSynthesize:
    @pytest.mark.parametrize("name", ["calm", "angry", "panic", "blend", "planted"])
    @pytest.mark.parametrize("duration_s", [0.01, 0.8, 2.0])
    def test_samples_match_the_earlier_form(self, name, duration_s):
        recipes = dict(corpus.DEFAULT_CLASS_RECIPES)
        recipes["blend"] = recipes["angry"].blend(recipes["panic"], 0.5)
        recipes["planted"] = planted_recipe().variants["panic"]
        for seed in range(3):
            got = corpus._synthesize(recipes[name], np.random.default_rng([seed, 2, 7]),
                                     duration_s, SR)
            want = oracles.synthesize_whole(recipes[name], np.random.default_rng([seed, 2, 7]),
                                            duration_s, SR)
            assert _same(got, want)
