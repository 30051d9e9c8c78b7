"""Audio loading, standardization, energy VAD, and segmentation.

The preprocessing contract: every signal entering feature extraction is
16 kHz, mono, peak-normalized. Silence is removed with an energy-threshold
voice activity detector, and long voiced stretches are split into
utterance-sized segments at low-energy frames.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .features import frame_lengths, frame_matrix, rms_energy

TARGET_RATE = 16000
TARGET_PEAK = 0.95
# WAV header sample rates, telephone to studio: resampling a corrupt one
# would divide by zero or build a filter of up to billions of taps
MIN_RATE = 8000
MAX_RATE = 384000

# the VAD: a frame is voiced when its RMS is within 40 dB of the signal's
# peak, and the 5 frames (50 ms) after a voiced frame stay voiced, so the
# short dips between syllables do not split an utterance
VAD_FLOOR_DB = -40.0
VAD_HANGOVER_FRAMES = 5
# segments: a voiced stretch over 10 s is split into utterance-sized pieces,
# and a piece under 0.5 s (about 50 frames) is dropped as too short to describe
MAX_SEGMENT_S = 10.0
MIN_SEGMENT_S = 0.5


@dataclass(frozen=True)
class AudioSignal:
    """A sampled waveform. ``samples`` is float64, shape (n,) for mono or
    (channels, n) for multichannel; amplitudes are in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def num_samples(self):
        return self.samples.shape[-1]

    @property
    def duration_seconds(self):
        return self.num_samples / self.sample_rate


_INT_SCALES = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}


def load_audio(path):
    """Load a PCM WAV file (8/16/24-bit int or 32/64-bit float, 1-2 channels,
    MIN_RATE to MAX_RATE Hz) and return an AudioSignal with samples scaled
    to [-1, 1]. A float sample that is NaN or infinite raises DataError."""
    import scipy.io.wavfile  # here, so that commands that read no audio never load scipy

    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DataError(f"{path}: not a readable PCM WAV file ({exc})")
    if not MIN_RATE <= rate <= MAX_RATE:
        raise DataError(f"{path}: sample rate {rate} Hz is outside {MIN_RATE}-{MAX_RATE} Hz")
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise DataError(f"{path}: {data.shape[1]} channels (max 2)")
        data = data.T  # (channels, n)
    dtype = data.dtype
    if dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif dtype in _INT_SCALES:
        samples = data.astype(np.float64) / _INT_SCALES[dtype]
    elif dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise DataError(f"{path}: non-finite sample value")
    else:
        raise DataError(f"{path}: unsupported sample dtype {dtype}")
    return AudioSignal(samples=samples, sample_rate=int(rate))


def save_wav(path, signal):
    """Write a mono AudioSignal as 16-bit PCM WAV."""
    import scipy.io.wavfile

    x = np.clip(signal.samples, -1.0, 1.0)
    pcm = (x * 32767.0).round().astype(np.int16)
    scipy.io.wavfile.write(path, signal.sample_rate, pcm)


@functools.lru_cache(maxsize=None)
def _polyphase_bank(up, down):
    """The anti-aliasing filter of ``scipy.signal.resample_poly`` at its
    defaults, split into its ``up`` phases.

    The filter is a windowed sinc (Kaiser window, beta = 5) with cutoff
    1/max(up, down) of Nyquist and half-length 10 * max(up, down), scaled
    to gain ``up`` and front-padded so output sample k sits on input time
    k * down / up. Row p holds taps p, p + up, p + 2 * up, ... in reverse,
    so a row dotted with a window of the signal in time order gives one
    output sample. Returns (bank, first), where ``first`` is the index of
    the first output sample kept in the full-length filter output.
    """
    max_rate = max(up, down)
    cutoff = 1.0 / max_rate
    half_len = 10 * max_rate
    m = np.arange(-half_len, half_len + 1, dtype=np.float64)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(len(m), 5.0)
    h = h / np.sum(h) * up
    pre_pad = down - half_len % down
    n_taps = -(-(pre_pad + len(h)) // up)
    padded = np.zeros(n_taps * up)
    padded[pre_pad:pre_pad + len(h)] = h
    bank = np.ascontiguousarray(padded.reshape(n_taps, up).T[:, ::-1])
    bank.flags.writeable = False
    return bank, (half_len + pre_pad) // down


def _resample_poly(x, up, down):
    """Resample a 1-D signal by the reduced ratio up/down; gives
    ceil(len(x) * up / down) samples, as ``scipy.signal.resample_poly``
    with its default window and zero padding does.

    Output sample k is the dot product of phase (k + first) * down % up of
    the polyphase bank with the window of the signal that ends at input
    sample (k + first) * down // up. Every up-th output sample uses the same
    phase, and its windows step through the signal by ``down``, so each
    phase is one product over a strided view of the windows.
    """
    bank, first = _polyphase_bank(up, down)
    n_taps = bank.shape[1]
    n_out = -(-len(x) * up // down)
    last_end = (n_out - 1 + first) * down // up
    # zeros before and after, so every window lies inside the padded signal;
    # the window ending at input sample i starts at index i of ``windows``
    padded = np.concatenate((np.zeros(n_taps - 1), x,
                             np.zeros(max(0, last_end + 1 - len(x)))))
    windows = sliding_window_view(padded, n_taps)
    y = np.empty(n_out)
    for r in range(min(up, n_out)):
        t = (r + first) * down
        count = len(range(r, n_out, up))
        start = t // up
        # plain einsum never calls BLAS, whose thread pool would keep a
        # second core spinning for this product
        np.einsum("ij,j->i", windows[start:start + (count - 1) * down + 1:down],
                  bank[t % up], out=y[r::up])
    return y


def standardize(signal):
    """Return a mono, resampled, peak-normalized copy of ``signal``.

    Channels are mixed down by summing the channel rows and dividing by
    the channel count, which for one or two channels is bit-identical to
    their mean. Resampling is a numpy polyphase windowed-sinc resampler with
    the filter, gain, alignment and length of ``scipy.signal.resample_poly``
    at its defaults. An all-zero signal cannot be peak-normalized; it is
    passed through as it is. Idempotent bit-for-bit: a signal that is
    already standardized is returned unchanged.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    sample_rate = signal.sample_rate
    # when the caller passed its last reference, the multichannel array is
    # freed as soon as it is mixed down, before the resampler allocates
    del signal
    if x.size == 0:
        raise DataError("cannot standardize an empty signal")
    if x.ndim == 2:
        # row adds run along the samples; x.mean(axis=0) reduces an inner
        # axis of length 2 per sample and is about 5x slower
        x = sum(x[1:], x[0]) / x.shape[0]
    if sample_rate != TARGET_RATE:
        ratio = Fraction(TARGET_RATE, sample_rate)
        x = _resample_poly(x, ratio.numerator, ratio.denominator)
    peak = float(np.max(np.abs(x)))
    if peak not in (0.0, TARGET_PEAK):
        # divide-then-multiply so the peak sample lands exactly on
        # TARGET_PEAK, which makes a second pass a no-op
        x = (x / peak) * TARGET_PEAK
    return AudioSignal(x, TARGET_RATE)


def detect_voice_activity(signal):
    """Find voiced intervals: analysis frames whose RMS exceeds
    ``VAD_FLOOR_DB`` relative to the signal peak, smoothed by keeping
    ``VAD_HANGOVER_FRAMES`` frames voiced after each active frame. Returns
    sorted, non-overlapping half-open (start, end) sample ranges, start < end."""
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot run VAD on an empty signal")
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return []
    frame_len, hop_len = frame_lengths(signal.sample_rate)
    thr = peak * 10.0 ** (VAD_FLOOR_DB / 20.0)
    rms = rms_energy(frame_matrix(x, frame_len, hop_len))
    if rms.size == 0:
        # shorter than one frame: judge the whole signal at once
        return [(0, len(x))] if np.sqrt(np.mean(x * x)) > thr else []
    # a frame is voiced when it or one of the VAD_HANGOVER_FRAMES before it is
    counts = np.concatenate(([0], np.cumsum(rms > thr)))
    idx = np.arange(len(rms))
    voiced = counts[idx + 1] > counts[np.maximum(idx - VAD_HANGOVER_FRAMES, 0)]
    edges = np.diff(np.concatenate(([0], voiced.astype(np.int8), [0])))
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
    starts = first * hop_len
    ends = np.minimum(last * hop_len + frame_len, len(x))
    # frame extents can make runs overlap; ends are monotonic, so a run
    # joins the one before it when it starts at or before that run's end
    joins = np.flatnonzero(starts[1:] <= ends[:-1])
    starts, ends = np.delete(starts, joins + 1), np.delete(ends, joins)
    return list(zip(starts.tolist(), ends.tolist()))


def _split_point(x, sample_rate, lo, hi):
    """Lowest-energy analysis frame start within half a second of the
    midpoint of x[lo:hi]. Returns an absolute sample index strictly inside
    (lo, hi)."""
    mid = (lo + hi) // 2
    win = int(0.5 * sample_rate)
    frame_len, hop_len = frame_lengths(sample_rate)
    search_lo = max(lo + 1, mid - win)
    search_hi = min(hi - 1, mid + win)
    seg = x[search_lo:search_hi]
    rms = rms_energy(frame_matrix(seg, frame_len, hop_len))
    if rms.size == 0:
        return mid
    return search_lo + int(np.argmin(rms)) * hop_len


def segment(signal, intervals):
    """Cut (start, end) voiced intervals into utterance signals.

    Intervals longer than ``MAX_SEGMENT_S`` are split recursively at the
    lowest-energy frame near their midpoint; pieces shorter than
    ``MIN_SEGMENT_S`` are dropped.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    sr = signal.sample_rate
    max_len = int(MAX_SEGMENT_S * sr)
    min_len = int(MIN_SEGMENT_S * sr)

    # depth first, left half first; a stack, not a recursive closure, whose
    # reference cycle would keep ``x`` alive until the next garbage collection
    pieces = []
    stack = list(intervals)[::-1]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > max_len:
            mid = _split_point(x, sr, lo, hi)
            stack += [(mid, hi), (lo, mid)]
        else:
            pieces.append((lo, hi))
    return [AudioSignal(x[lo:hi].copy(), sr) for lo, hi in pieces if hi - lo >= min_len]
