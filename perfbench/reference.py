"""Computations the benchmark makes apart from the program, to check it.

Nothing here imports serhybrid: the MFCC reference builds its own window,
power spectrum, mel filterbank and DCT-II matrix; the SVM reference is a
second-order working-set SMO (the LIBSVM selection rule) on the exact dual;
macro-F1 and label parsing are counted from the files the program wrote.
"""

import math
import re

import numpy as np

CLASSES = ("angry", "calm", "panic")

LABEL_LINE = re.compile(r"^LABEL: (calm|angry|panic)$", re.MULTILINE)


def answered_label(rationale):
    """The label on the last ``LABEL: x`` line of an LLM answer, or None."""
    hits = LABEL_LINE.findall(rationale or "")
    return hits[-1] if hits else None


def macro_f1(pred, gold):
    """Unweighted mean of per-class F1 over CLASSES; a class nobody
    predicted (or nobody has) scores 0."""
    scores = []
    for c in CLASSES:
        tp = sum(1 for s in gold if gold[s] == c and pred[s] == c)
        n_pred = sum(1 for s in gold if pred[s] == c)
        n_gold = sum(1 for s in gold if gold[s] == c)
        p = tp / n_pred if n_pred else 0.0
        r = tp / n_gold if n_gold else 0.0
        scores.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(scores) / len(CLASSES)


# -- MFCC ------------------------------------------------------------------

def _mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _hz(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mfcc_reference(frames, sample_rate, n_mels=26, n_coeffs=13, f_hi=8000.0):
    """MFCCs of raw (unwindowed) frames, shape (n_frames, n_coeffs).

    Hann window, power spectrum on the next power of two, triangular mel
    filters between 0 Hz and ``f_hi``, log with a 1e-10 floor, orthonormal
    DCT-II.
    """
    frames = np.atleast_2d(frames)
    m = frames.shape[1]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / (m - 1))
    nfft = 1 << (m - 1).bit_length()
    spectrum = np.fft.rfft(frames * window, n=nfft, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    edges = _hz(np.linspace(_mel(0.0), _mel(f_hi), n_mels + 2))
    freqs = np.arange(nfft // 2 + 1) * sample_rate / nfft
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
    log_e = np.log(np.maximum(power @ bank.T, 1e-10))
    k = np.arange(n_mels)
    dct = np.sqrt(2.0 / n_mels) * np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * n_mels))
    dct[0] /= np.sqrt(2.0)
    return (log_e @ dct.T)[:, :n_coeffs]


def frames_of(x, frame_len, hop_len):
    n = 1 + (len(x) - frame_len) // hop_len
    return np.stack([x[i * hop_len:i * hop_len + frame_len] for i in range(n)])


# -- linear SVM --------------------------------------------------------------

def svm_dual(X, y, C, eps=1e-7, max_iter=200000):
    """Solve max sum(a) - 1/2 |sum a_i y_i x_i|^2, 0 <= a <= C, y.a = 0.

    Working-set SMO with second-order selection of the partner. Returns the
    dual variables; stops when the maximal KKT violation is below ``eps``.
    """
    K = X @ X.T
    Q = K * np.outer(y, y)
    dk = np.diag(K).copy()
    a = np.zeros(len(y))
    grad = -np.ones(len(y))  # gradient of 1/2 a'Qa - sum(a)
    for _ in range(max_iter):
        score = -y * grad
        up = ((y > 0) & (a < C)) | ((y < 0) & (a > 0))
        low = ((y > 0) & (a > 0)) | ((y < 0) & (a < C))
        up_idx = np.flatnonzero(up)
        i = up_idx[np.argmax(score[up_idx])]
        m = score[i]
        if m - score[low].min() < eps:
            break
        cand = np.flatnonzero(low & (score < m))
        b = m - score[cand]
        curv = np.maximum(dk[i] + dk[cand] - 2.0 * K[i, cand], 1e-12)
        j = cand[np.argmax(b * b / curv)]
        step = (m - score[j]) / max(dk[i] + dk[j] - 2.0 * K[i, j], 1e-12)
        step = min(step, C - a[i] if y[i] > 0 else a[i], a[j] if y[j] > 0 else C - a[j])
        a[i] += y[i] * step
        a[j] -= y[j] * step
        grad += step * (y[i] * Q[:, i] - y[j] * Q[:, j])
    else:
        raise RuntimeError("reference SVM solver did not converge")
    return a


def best_bias(w, X, y, C):
    """The bias minimising the hinge sum for fixed ``w`` (exact: the convex
    piecewise-linear sum is smallest at one of its breakpoints)."""
    f = X @ w
    cands = y - f
    hinge = np.maximum(0.0, 1.0 - y[None, :] * (f[None, :] + cands[:, None])).sum(axis=1)
    return float(cands[int(np.argmin(hinge))])


def primal_objective(w, b, X, y, C):
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - y * (X @ w + b)).sum())


def svm_reference(X, y, C):
    """(w, b, primal, dual) of the exact soft-margin SVM on (X, y)."""
    a = svm_dual(X, y, C)
    w = (a * y) @ X
    b = best_bias(w, X, y, C)
    return w, b, primal_objective(w, b, X, y, C), float(a.sum() - 0.5 * w @ w)


def platt_probabilities(margins, platt_a, platt_b):
    """Normalised per-head Platt sigmoids 1 / (1 + exp(A f + B))."""
    z = platt_a * margins + platt_b
    sig = 1.0 / (1.0 + np.exp(z))
    return sig / sig.sum(axis=-1, keepdims=True)


def resampled_length(n, rate_in, rate_out):
    g = math.gcd(rate_in, rate_out)
    return -(-n * (rate_out // g) // (rate_in // g))
