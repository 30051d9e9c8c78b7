"""Audio loading, standardization, energy VAD, and segmentation.

The preprocessing contract: every signal entering feature extraction is
16 kHz, mono, peak-normalized. Silence is removed with an energy-threshold
voice activity detector, and long voiced stretches are split into
utterance-sized segments at low-energy frames.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
import scipy.io.wavfile

from .errors import EmptySignal, UnsupportedFormat
from .features import frame_matrix, rms_energy

TARGET_RATE = 16000
TARGET_PEAK = 0.95


@dataclass(frozen=True)
class AudioSignal:
    """A sampled waveform. ``samples`` is float64, shape (n,) for mono or
    (channels, n) for multichannel; amplitudes are in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""
    degenerate: bool = False  # all-zero input passed through normalization

    @property
    def channels(self):
        return 1 if self.samples.ndim == 1 else self.samples.shape[0]

    @property
    def num_samples(self):
        return self.samples.shape[-1]

    @property
    def duration_seconds(self):
        return self.num_samples / self.sample_rate


@dataclass(frozen=True)
class VoicedInterval:
    """Half-open sample range [start_sample, end_sample) marked as voiced."""

    start_sample: int
    end_sample: int

    def __post_init__(self):
        if not self.start_sample < self.end_sample:
            raise ValueError("interval must satisfy start_sample < end_sample")


@dataclass(frozen=True)
class AudioSegment:
    """A voiced utterance cut out of a parent signal."""

    signal: AudioSignal
    parent_id: str
    offset_seconds: float
    duration_seconds: float


_INT_SCALES = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}


def load_audio(path):
    """Load a PCM WAV file (8/16/24-bit int or 32/64-bit float, 1-2 channels)
    and return an AudioSignal with samples scaled to [-1, 1]."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise UnsupportedFormat(f"{path}: not a readable PCM WAV file ({exc})")
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise UnsupportedFormat(f"{path}: {data.shape[1]} channels (max 2)")
        data = data.T  # (channels, n)
    dtype = data.dtype
    if dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif dtype in _INT_SCALES:
        samples = data.astype(np.float64) / _INT_SCALES[dtype]
    elif dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormat(f"{path}: unsupported sample dtype {dtype}")
    return AudioSignal(samples=samples, sample_rate=int(rate), source_id=str(path))


def save_wav(path, signal):
    """Write a mono AudioSignal as 16-bit PCM WAV."""
    x = np.clip(signal.samples, -1.0, 1.0)
    pcm = (x * 32767.0).round().astype(np.int16)
    scipy.io.wavfile.write(path, signal.sample_rate, pcm)


def standardize(signal, target_rate=TARGET_RATE, target_peak=TARGET_PEAK):
    """Return a mono, resampled, peak-normalized copy of ``signal``.

    Resampling uses scipy's polyphase windowed-sinc resampler. An all-zero
    signal cannot be peak-normalized; it is passed through with the
    ``degenerate`` flag set. Idempotent bit-for-bit: a signal that is
    already standardized is returned unchanged.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptySignal("cannot standardize an empty signal")
    if x.ndim == 2:
        x = x.mean(axis=0)
    if signal.sample_rate != target_rate:
        import scipy.signal  # about 1 s to import; only resampling needs it
        ratio = Fraction(target_rate, signal.sample_rate)
        x = scipy.signal.resample_poly(x, ratio.numerator, ratio.denominator)
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return AudioSignal(x, target_rate, signal.source_id, degenerate=True)
    if peak != target_peak:
        # divide-then-multiply so the peak sample lands exactly on
        # target_peak, which makes a second pass a no-op
        x = (x / peak) * target_peak
    return AudioSignal(x, target_rate, signal.source_id, degenerate=False)


def detect_voice_activity(signal, frame_ms=25.0, hop_ms=10.0,
                          energy_floor_db=-40.0, hangover_frames=5):
    """Find voiced intervals: frames whose RMS exceeds a floor relative to
    the signal peak, smoothed by keeping ``hangover_frames`` frames voiced
    after each active frame. Returns sorted, non-overlapping intervals."""
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptySignal("cannot run VAD on an empty signal")
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return []
    frame_len = int(round(frame_ms * signal.sample_rate / 1000.0))
    hop_len = int(round(hop_ms * signal.sample_rate / 1000.0))
    thr = peak * 10.0 ** (energy_floor_db / 20.0)
    rms = rms_energy(frame_matrix(x, frame_len, hop_len))
    if rms.size == 0:
        # shorter than one frame: judge the whole signal at once
        return [VoicedInterval(0, len(x))] if np.sqrt(np.mean(x * x)) > thr else []
    voiced = rms > thr
    if hangover_frames > 0:
        # a frame is voiced when it or one of the hangover_frames before it is
        counts = np.concatenate(([0], np.cumsum(voiced)))
        idx = np.arange(len(voiced))
        voiced = counts[idx + 1] > counts[np.maximum(idx - hangover_frames, 0)]
    edges = np.diff(np.concatenate(([0], voiced.astype(np.int8), [0])))
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
    starts = first * hop_len
    ends = np.minimum(last * hop_len + frame_len, len(x))
    # frame extents can make runs overlap; ends are monotonic, so a run
    # joins the one before it when it starts at or before that run's end
    joins = np.flatnonzero(starts[1:] <= ends[:-1])
    starts, ends = np.delete(starts, joins + 1), np.delete(ends, joins)
    return [VoicedInterval(s, e) for s, e in zip(starts.tolist(), ends.tolist())]


def _split_point(x, sample_rate, lo, hi, frame_ms=25.0, hop_ms=10.0,
                 search_window_s=0.5):
    """Lowest-energy frame start within +-search_window_s of the midpoint
    of x[lo:hi]. Returns an absolute sample index strictly inside (lo, hi)."""
    mid = (lo + hi) // 2
    win = int(search_window_s * sample_rate)
    frame_len = int(round(frame_ms * sample_rate / 1000.0))
    hop_len = int(round(hop_ms * sample_rate / 1000.0))
    search_lo = max(lo + 1, mid - win)
    search_hi = min(hi - 1, mid + win)
    seg = x[search_lo:search_hi]
    rms = rms_energy(frame_matrix(seg, frame_len, hop_len))
    if rms.size == 0:
        return mid
    return search_lo + int(np.argmin(rms)) * hop_len


def segment(signal, intervals, max_len_s=10.0, min_len_s=0.5):
    """Cut voiced intervals into utterance segments.

    Intervals longer than ``max_len_s`` are split recursively at the
    lowest-energy frame near their midpoint; pieces shorter than
    ``min_len_s`` are dropped.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    sr = signal.sample_rate
    max_len = int(max_len_s * sr)
    min_len = int(min_len_s * sr)

    pieces = []

    def cut(lo, hi):
        if hi - lo > max_len:
            mid = _split_point(x, sr, lo, hi)
            if mid <= lo or mid >= hi:
                mid = (lo + hi) // 2
            cut(lo, mid)
            cut(mid, hi)
        else:
            pieces.append((lo, hi))

    for iv in intervals:
        cut(iv.start_sample, iv.end_sample)

    segments = []
    for idx, (lo, hi) in enumerate(p for p in pieces if p[1] - p[0] >= min_len):
        sub = AudioSignal(x[lo:hi].copy(), sr,
                          source_id=f"{signal.source_id}_{idx}",
                          degenerate=signal.degenerate)
        segments.append(AudioSegment(
            signal=sub,
            parent_id=signal.source_id,
            offset_seconds=lo / sr,
            duration_seconds=(hi - lo) / sr,
        ))
    return segments
