"""Frame-level pitch / energy / MFCC extraction and fixed-length aggregation.

The aggregated vector has 37 dimensions, frozen in DIMENSIONS:
6 pitch statistics (over voiced frames), 5 energy statistics, and
mean + std of 13 MFCCs. Every vector is measured on one analysis frame,
fixed in the constants below, to which the classifier, the corpus
statistics and the prompts' z-scores are fitted. A vector can be rendered
as a qualitative acoustic profile (z-scored against corpus statistics) for
the reasoning prompts.
"""

import functools
import json
import math
import threading
import typing
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, member, parse_json, read_csv, read_text, write_csv

UNVOICED = math.nan

SCHEMA_TAG = "serhybrid-features-v1"

STATS_SCHEMA = "serhybrid-stats-v1"

# the analysis frame: 25-ms frames every 10 ms
FRAME_MS = 25.0
HOP_MS = 10.0
# pitch is searched over 60-400 Hz; a frame whose normalized-autocorrelation
# peak falls below VOICING_CLARITY is unvoiced
PITCH_FMIN = 60.0
PITCH_FMAX = 400.0
VOICING_CLARITY = 0.6
# MFCCs: 26 mel bands over 0-8 kHz, the first 13 cepstral coefficients kept
N_MELS = 26
MEL_FMIN = 0.0
MEL_FMAX = 8000.0
N_MFCC = 13

DIMENSIONS = (
    "pitch_mean", "pitch_std", "pitch_min", "pitch_max", "pitch_range",
    "voiced_ratio",
    "energy_mean", "energy_std", "energy_min", "energy_max", "energy_range",
    *[f"mfcc{i}_mean" for i in range(N_MFCC)],
    *[f"mfcc{i}_std" for i in range(N_MFCC)],
)

DIM_INDEX = {name: i for i, name in enumerate(DIMENSIONS)}

# summary lines rendered into prompts: (display name, dimension)
SUMMARY_DIMS = (
    ("pitch level", "pitch_mean"),
    ("pitch variability", "pitch_std"),
    ("energy level", "energy_mean"),
    ("energy variability", "energy_std"),
    ("voiced ratio", "voiced_ratio"),
)


# a feature vector is a float64 array of the DIMENSIONS, in their order;
# the name stays for callers that still spell it
FeatureVector = typing.NewType("FeatureVector", np.ndarray)


FEATURE_COLUMNS = ("schema", "sample_id", *DIMENSIONS)


def write_features_csv(path, rows):
    """Write (sample_id, feature vector) pairs as CSV with a schema column."""
    write_csv(path, FEATURE_COLUMNS,
              ([SCHEMA_TAG, sample_id, *[repr(float(v)) for v in vec]]
               for sample_id, vec in rows))


def read_features_csv(path):
    """Read the CSV written by write_features_csv; returns {sample_id: feature vector}.
    A wrong schema tag, a value that is not a finite number or a repeated
    sample id raises DataError naming its line."""
    header, rows = read_csv(path, DataError, FEATURE_COLUMNS)
    if tuple(header) != FEATURE_COLUMNS:
        raise DataError(f"{path}: unexpected feature CSV header")
    out = {}
    for where, cells in rows:
        if cells[0] != SCHEMA_TAG:
            raise DataError(f"{where}: expected schema {SCHEMA_TAG!r}, got {cells[0]!r}")
        out[cells[1]] = finite_array(cells[2:], (len(DIMENSIONS),),
                                     f"{where}: feature vector", DataError)
    return out


def frame_matrix(x, frame_len, hop_len):
    """Overlapping frames of a 1-D array as a read-only (n_frames, frame_len)
    view of it.

    Frame count is 1 + floor((N - frame_len) / hop_len); an array shorter
    than one frame gives zero rows.
    """
    if len(x) < frame_len:
        return np.empty((0, frame_len))
    return sliding_window_view(x, frame_len)[::hop_len]


def frame_lengths(sample_rate):
    """(frame_len, hop_len): the analysis frame and hop in samples."""
    return tuple(int(round(ms * sample_rate / 1000.0)) for ms in (FRAME_MS, HOP_MS))


def frame_signal(signal):
    """Slice a standardized signal into overlapping analysis frames
    (unwindowed).

    Raises DataError when the signal does not cover one frame.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    frame_len, hop_len = frame_lengths(signal.sample_rate)
    if len(x) < frame_len:
        raise DataError(f"signal has {len(x)} samples, frame needs {frame_len}")
    return frame_matrix(x, frame_len, hop_len)


# the frame DSP works through at most BLOCK_ROWS frames at a time in
# buffers that each thread keeps from call to call: a clip's temporaries
# are not faulted in afresh for every clip, and a thread's scratch stays
# bounded whatever the clip length. Every result is computed per row in
# one operand order, so a row comes out bit-identical whatever the number
# of rows computed beside it, in a block or in a pass over the whole matrix.
BLOCK_ROWS = 256


class _Scratch(threading.local):
    def __init__(self):
        self.buffers = {}


_scratch = _Scratch()


def _scratch_array(slot, shape, dtype=np.float64):
    """This thread's buffer ``slot`` as an array of ``shape`` whose
    contents are left over from earlier calls. The buffer grows to the
    largest size asked for and is kept; the extractors run one after
    another on a thread and share slots, so no result may be a view of
    one."""
    size = math.prod(shape)
    buf = _scratch.buffers.get(slot)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = _scratch.buffers[slot] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _blocks(n_rows):
    """Slices of at most BLOCK_ROWS consecutive rows that cover n_rows."""
    return [slice(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]


def rms_energy(frames):
    """Root-mean-square of each row of an (n_frames, frame_len) matrix of
    unwindowed frames."""
    x = np.asarray(frames, dtype=np.float64)
    out = np.empty(len(x))
    for rows in _blocks(len(x)):
        block = x[rows]
        squares = np.multiply(block, block, out=_scratch_array("squares", block.shape))
        np.mean(squares, axis=1, out=out[rows])
    return np.sqrt(out, out=out)


def estimate_pitch(frames, sample_rate):
    """Fundamental frequency via normalized autocorrelation.

    ``frames`` is an (n_frames, frame_len) matrix; the result has one
    pitch per row. In each row the lag of the highest
    normalized-autocorrelation peak in [1/PITCH_FMAX, 1/PITCH_FMIN] is
    refined with parabolic interpolation. Rows whose peak clarity falls
    below VOICING_CLARITY are UNVOICED.
    """
    import scipy.fft  # here, so that commands that run no DSP never load scipy

    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[1]
    pitch = np.full(x.shape[0], UNVOICED)
    lag_min = max(1, int(sample_rate / PITCH_FMAX))
    # the two windows of a lag overlap in n - lag samples; at least one fmax
    # period of them keeps a lag near n from a normalized ACF of exactly +-1
    lag_max = min(n - lag_min, int(math.ceil(sample_rate / PITCH_FMIN)))
    if lag_max <= lag_min:
        return pitch
    # raw autocorrelation via FFT, on the lags the peak picker reads: the
    # window plus one neighbour each side; nfft >= n + n_lags - 1 keeps
    # those lags free of circular wrap-around
    n_lags = min(n, lag_max + 2)
    nfft = scipy.fft.next_fast_len(n + n_lags - 1, real=True)
    for rows in _blocks(len(x)):
        pitch[rows] = _pitch_block(x[rows], sample_rate, lag_min, lag_max, n_lags, nfft)
    return pitch


def _pitch_block(x, sample_rate, lag_min, lag_max, n_lags, nfft):
    """estimate_pitch of the rows of ``x``, at most BLOCK_ROWS of them, in
    this thread's scratch buffers."""
    n_rows, n = x.shape
    rows = np.arange(n_rows)
    pitch = np.full(n_rows, UNVOICED)
    lo = lag_min - 1
    xc = _scratch_array("frames", (n_rows, n))
    csum = _scratch_array("squares", (n_rows, n + 1))
    # mean removal leaves a DC-only row a residual of rounding error, whose
    # normalized ACF is 1 at every lag; a row counts as signal only when its
    # residual exceeds that error bound
    floor = n * np.finfo(np.float64).eps * np.abs(x, out=xc).max(axis=1)
    np.subtract(x, x.mean(axis=1, keepdims=True), out=xc)
    has_signal = np.abs(xc, out=csum[:, 1:]).max(axis=1) > floor
    spec = np.fft.rfft(xc, nfft, axis=1,
                       out=_scratch_array("spectrum", (n_rows, nfft // 2 + 1), np.complex128))
    # conj(spec) * spec in every block, as the oracle's whole-matrix product;
    # spec * conj(spec) would round the imaginary part differently (FMA)
    power = np.conjugate(spec, out=_scratch_array("product", spec.shape, np.complex128))
    np.multiply(power, spec, out=power)
    acf = np.fft.irfft(power, nfft, axis=1,
                       out=_scratch_array("acf", (n_rows, nfft)))[:, lo:n_lags]
    # normalization: r[t] / sqrt(e0[t] * e1[t]) with e0, e1 the energies of
    # the two overlapping windows of length n - t; column i is lag lo + i
    csum[:, 0] = 0.0
    np.cumsum(np.multiply(xc, xc, out=csum[:, 1:]), axis=1, out=csum[:, 1:])
    e0 = csum[:, n - lo:n - n_lags:-1]
    denom = np.subtract(csum[:, n:], csum[:, lo:n_lags],
                        out=_scratch_array("denom", (n_rows, n_lags - lo)))
    np.sqrt(np.multiply(e0, denom, out=denom), out=denom)
    # the FFT leaves every lag a rounding error of about eps * energy *
    # log2(nfft); where the two windows hold almost none of the frame's
    # energy (a one-sample overlap on a near-zero edge sample) that error
    # would swamp r[t], so those few lags are summed directly
    for row, col in zip(*np.nonzero(denom < 1e-6 * csum[:, n:])):
        lag = lo + col
        acf[row, col] = np.dot(xc[row, :n - lag], xc[row, lag:])
    positive = denom > 0
    norm = np.divide(acf, denom, out=acf, where=positive)
    norm[~positive] = 0.0
    # a periodic signal repeats at every multiple of its period, so the
    # global maximum may sit on a subharmonic; take the smallest lag that
    # is a local maximum within 10% of the peak, else the peak itself
    width = lag_max - lag_min + 1
    window = norm[:, 1:width + 1]
    peak = window.max(axis=1, keepdims=True)
    near = (window >= 0.9 * peak) & (window >= norm[:, :width])
    # lag_max + 1 is past the last lag when n_lags == n; the right
    # neighbour of lag_max is then lag_max itself, which never fails
    right = norm[:, 2:width + 2]
    near[:, :right.shape[1]] &= window[:, :right.shape[1]] >= right
    best = lag_min + np.where(near.any(axis=1), near.argmax(axis=1), window.argmax(axis=1))
    clarity = norm[rows, best - lo]
    voiced = has_signal & (clarity >= VOICING_CLARITY)
    # parabolic interpolation around the peak
    a = norm[rows, best - 1 - lo]
    c = norm[rows, np.minimum(best + 1, n_lags - 1) - lo]
    curvature = a - 2.0 * clarity + c
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (a - c) / curvature
    refine = (best < n_lags - 1) & (curvature != 0.0) & (np.abs(delta) < 1.0)
    lag = np.where(refine, best + delta, best)
    pitch[voiced] = sample_rate / lag[voiced]
    return pitch


def mel_scale(f_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels, nfft, sample_rate, fmin, fmax):
    """Triangular mel filterbank over rfft bins; shape (n_mels, nfft//2 + 1)."""
    mel_pts = np.linspace(mel_scale(fmin), mel_scale(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(nfft // 2 + 1) * sample_rate / nfft
    fb = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


@functools.lru_cache(maxsize=None)
def _shared_mel_filterbank(nfft, sample_rate):
    """The MFCC filterbank (N_MELS bands over MEL_FMIN..MEL_FMAX), built
    once per process for each FFT size and rate and shared read-only
    between calls."""
    fb = mel_filterbank(N_MELS, nfft, sample_rate, MEL_FMIN, MEL_FMAX)
    fb.flags.writeable = False
    return fb


def mfcc(frames, sample_rate):
    """MFCCs of windowed frames: orthonormal DCT-II of log mel energies.

    ``frames`` is one frame or an (n_frames, frame_len) matrix; the result
    has N_MFCC coefficients per frame. FFT size is the next power of
    two >= frame length; log floor is 1e-10. Coefficient 0 is retained.
    """
    import scipy.fft

    x = np.asarray(frames, dtype=np.float64)
    matrix = x.reshape(-1, x.shape[-1])
    nfft = 1 << (x.shape[-1] - 1).bit_length()
    fb = _shared_mel_filterbank(nfft, sample_rate)
    coeffs = np.empty((len(matrix), N_MFCC))
    for rows in _blocks(len(matrix)):
        spec = np.fft.rfft(matrix[rows], nfft, axis=1, out=_scratch_array(
            "spectrum", (rows.stop - rows.start, nfft // 2 + 1), np.complex128))
        power = np.abs(spec, out=_scratch_array("squares", spec.shape))
        np.square(power, out=power)
        # plain einsum never calls BLAS, whose thread pool would keep a
        # second core spinning for this small product
        log_e = np.log(np.maximum(np.einsum("...k,mk->...m", power, fb), 1e-10))
        coeffs[rows] = scipy.fft.dct(log_e, type=2, norm="ortho", axis=-1)[:, :N_MFCC]
    return coeffs.reshape(x.shape[:-1] + (N_MFCC,))


def extract_series(signal):
    """Run the three frame-level extractors over a standardized signal:
    (pitch_hz, energy_rms, mfcc), one row per frame, with pitch UNVOICED
    (NaN) for aperiodic frames and mfcc of shape (n_frames, N_MFCC).

    Pitch and energy see raw frames; the MFCC path applies a Hann window,
    to one block of frames at a time in this thread's scratch.
    """
    frames = frame_signal(signal)
    pitch = estimate_pitch(frames, signal.sample_rate)
    energy = rms_energy(frames)
    hann = np.hanning(frames.shape[1])
    mfccs = np.concatenate([
        mfcc(np.multiply(frames[rows], hann,
                         out=_scratch_array("frames", (rows.stop - rows.start, len(hann)))),
             signal.sample_rate)
        for rows in _blocks(len(frames))])
    return pitch, energy, mfccs


def aggregate(pitch_hz, energy_rms, mfcc):
    """Collapse the frame streams of extract_series into their
    37-dimensional feature vector.

    Pitch statistics cover voiced frames only; with zero voiced frames
    they are 0 and voiced_ratio is 0. Stds are population stds.
    """
    n = len(pitch_hz)
    if n == 0:
        raise DataError("cannot aggregate an empty frame series")
    voiced = pitch_hz[~np.isnan(pitch_hz)]
    if voiced.size:
        p = [voiced.mean(), voiced.std(), voiced.min(), voiced.max(),
             voiced.max() - voiced.min(), voiced.size / n]
    else:
        p = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    e = energy_rms
    en = [e.mean(), e.std(), e.min(), e.max(), e.max() - e.min()]
    return np.array([*p, *en, *mfcc.mean(axis=0), *mfcc.std(axis=0)], dtype=np.float64)


@dataclass(frozen=True)
class CorpusStats:
    """Per-dimension mean/std over a reference corpus: the z-scoring of
    the prompts and the classifier's standardizer.

    Dimensions with zero variance are flagged and their std clamped to
    1e-8 so z-scores stay finite.
    """

    mean: np.ndarray
    std: np.ndarray
    zero_variance: tuple

    @classmethod
    def from_vectors(cls, vectors):
        return cls.from_matrix(np.reshape(vectors, (len(vectors), len(DIMENSIONS))))

    @classmethod
    def from_matrix(cls, X):
        """Column statistics of an (n_samples, n_dims) matrix; zero rows
        raise DataError."""
        if len(X) == 0:
            raise DataError("corpus stats need at least one feature row")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        flagged = tuple(DIMENSIONS[i] for i in np.flatnonzero(std == 0.0))
        std = np.maximum(std, 1e-8)
        return cls(mean=mean, std=std, zero_variance=flagged)

    def transform(self, X):
        """z-scores of a raw vector or of each row of a matrix."""
        return (X - self.mean) / self.std

    def to_json(self):
        return json.dumps({
            "schema": STATS_SCHEMA,
            "mean": {d: repr(float(v)) for d, v in zip(DIMENSIONS, self.mean)},
            "std": {d: repr(float(v)) for d, v in zip(DIMENSIONS, self.std)},
            "zero_variance": list(self.zero_variance),
        }, indent=2)

    @classmethod
    def checked(cls, doc, where, error):
        """CorpusStats from the JSON object of a model's scaler, or of a
        stats file once its keyed means and stds are put in dimension
        order: ``mean`` and ``std`` list one finite number (or numeric
        string) per dimension, every std is > 0, and ``zero_variance``
        lists dimension names. ``error`` names ``where`` otherwise."""
        dims = (len(DIMENSIONS),)
        mean = finite_array(member(doc, "mean", list, where, error), dims, f"{where}: mean", error)
        std = finite_array(member(doc, "std", list, where, error), dims, f"{where}: std", error)
        if np.any(std <= 0):
            raise error(f"{where}: std must be positive")
        zero_variance = member(doc, "zero_variance", list, where, error)
        if any(d not in DIMENSIONS for d in zero_variance):
            raise error(f"{where}: zero_variance must list feature dimensions")
        return cls(mean=mean, std=std, zero_variance=tuple(zero_variance))

    @classmethod
    def from_json(cls, text, where="corpus stats"):
        doc = parse_json(text, where, ConfigError, STATS_SCHEMA)
        mean = member(doc, "mean", dict, where, ConfigError)
        std = member(doc, "std", dict, where, ConfigError)
        missing = [d for d in DIMENSIONS if d not in mean or d not in std]
        if missing:
            raise ConfigError(f"{where}: missing dimensions: {missing}")
        return cls.checked({**doc, "mean": [mean[d] for d in DIMENSIONS],
                            "std": [std[d] for d in DIMENSIONS]}, where, ConfigError)

    @classmethod
    def load(cls, path):
        return cls.from_json(read_text(path, ConfigError), where=str(path))


def finite_array(values, shape, what, error):
    """A finite float array of exactly ``shape`` from JSON values: a list,
    or for a 2-D shape a list of lists, of numbers or numeric strings.
    ``error`` names ``what`` otherwise."""
    try:
        floats = ([float(v) for v in values] if len(shape) == 1
                  else [[float(v) for v in row] for row in values])
        arr = np.array(floats)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be numbers")
    if arr.shape != shape:
        raise error(f"{what} has shape {arr.shape}, expected {shape}")
    # math.isfinite over the floats costs less than np.isfinite on a short array
    if not all(map(math.isfinite, floats if len(shape) == 1 else arr.ravel().tolist())):
        raise error(f"{what} has non-finite values")
    return arr


def level_for_z(z):
    """Map a z-score to a qualitative level at fixed cut points."""
    if z < -1.5:
        return "very low"
    if z < -0.5:
        return "low"
    if z <= 0.5:
        return "moderate"
    if z <= 1.5:
        return "high"
    return "very high"


def describe(vectors, stats):
    """The acoustic profile of each feature vector in ``vectors``:
    the deterministic block embedded in prompts, which gives the five
    summary cues with their level and z-score against ``stats``. The rows
    are z-scored in one standardization of their matrix."""
    if stats.mean.shape != (len(DIMENSIONS),):
        raise ConfigError("corpus stats do not cover the feature schema")
    Z = stats.transform(np.reshape(vectors, (len(vectors), len(DIMENSIONS))))
    out = []
    for z in Z.tolist():
        lines = ["Acoustic profile of the utterance:"]
        for display, dim in SUMMARY_DIMS:
            zi = z[DIM_INDEX[dim]]
            lines.append(f"- {display} [{dim}]: {level_for_z(zi)} (z={zi:+.2f})")
        out.append("\n".join(lines))
    return out
