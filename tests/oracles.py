"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python (loops, Counter,
Fraction) rather than vectorized numpy, so a shared bug with the package
implementations is unlikely. The DSP references keep numpy only for one
dot product or one FFT per frame. ``smo_direct`` is the exception: it is
the solver's earlier numpy form, kept so the cached solver can be held to
it bit for bit. The ``*_direct`` file forms spell out each written file's
members one by one, as the writers once did, so the writers derived from
their dataclasses can be held to them byte for byte. The ``*_whole`` DSP
forms and ``synthetic_corpus_serial`` at the end are the earlier forms of
the blocked, scratch-buffer DSP and of the pooled corpus generator, kept
so those can be held to them bit for bit, and ``metrics_by_id`` and
``cohens_kappa_by_index`` are the earlier forms of the label counts.
"""

import json
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np
import scipy.fft

from serhybrid.audio_io import AudioSignal, save_wav
from serhybrid.classifier import MlEvidence
from serhybrid.corpus import PEAK_REFERENCE, ManifestEntry, save_manifest
from serhybrid.errors import DataError
from serhybrid.evaluation import ClassMetrics, MetricsReport
from serhybrid.features import (MEL_FMAX, MEL_FMIN, N_MELS, N_MFCC, PITCH_FMAX,
                                PITCH_FMIN, UNVOICED, VOICING_CLARITY, frame_signal,
                                mel_filterbank)
from serhybrid.labels import CLASSES
from serhybrid.reasoning import RULES_SCHEMA


def fleiss_kappa_direct(table):
    """Fleiss' kappa from the textbook formula, item by item.

    ``table`` is a list of per-item category-count rows. Returns a float,
    or None when expected agreement is 1.
    """
    rows = [list(map(int, row)) for row in table]
    n_items = len(rows)
    n_raters = sum(rows[0])
    # per-item observed agreement: fraction of agreeing rater pairs
    p_items = []
    for row in rows:
        pairs = sum(c * (c - 1) for c in row)
        p_items.append(Fraction(pairs, n_raters * (n_raters - 1)))
    p_bar = sum(p_items) / n_items
    # category proportions over all ratings
    n_categories = len(rows[0])
    totals = [sum(row[j] for row in rows) for j in range(n_categories)]
    p_j = [Fraction(t, n_items * n_raters) for t in totals]
    p_e = sum(p * p for p in p_j)
    if p_e == 1:
        return None
    return float((p_bar - p_e) / (1 - p_e))


def cohens_kappa_direct(a, b):
    """Cohen's kappa from observed/expected agreement, via exact fractions."""
    a = list(a)
    b = list(b)
    n = len(a)
    p_o = Fraction(sum(1 for x, y in zip(a, b) if x == y), n)
    count_a = Counter(a)
    count_b = Counter(b)
    p_e = sum(Fraction(count_a[c], n) * Fraction(count_b[c], n)
              for c in set(a) | set(b))
    if p_e == 1:
        return None
    return float((p_o - p_e) / (1 - p_e))


def per_class_prf_direct(preds, gold, labels):
    """Per-class precision/recall/F1 via plain counting.

    ``preds`` and ``gold`` are aligned label lists. Returns
    {label: (precision, recall, f1)} with 0.0 on empty denominators.
    """
    out = {}
    for label in labels:
        tp = sum(1 for p, g in zip(preds, gold) if p == label and g == label)
        pred_pos = sum(1 for p in preds if p == label)
        gold_pos = sum(1 for g in gold if g == label)
        precision = tp / pred_pos if pred_pos else 0.0
        recall = tp / gold_pos if gold_pos else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        out[label] = (precision, recall, f1)
    return out


def macro_f1_direct(preds, gold, labels):
    prf = per_class_prf_direct(preds, gold, labels)
    return sum(f1 for _, _, f1 in prf.values()) / len(labels)


def cohens_d_direct(group_a, group_b):
    """Cohen's d with pooled sample-variance, coded without numpy."""
    a = list(map(float, group_a))
    b = list(map(float, group_b))
    na, nb = len(a), len(b)
    mean_a = sum(a) / na
    mean_b = sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1) if na > 1 else 0.0
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1) if nb > 1 else 0.0
    pooled_sq = ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)
    if pooled_sq == 0.0:
        return 0.0
    return (mean_a - mean_b) / pooled_sq ** 0.5


def cohens_d_1d(group_a, group_b):
    """Cohen's d of one dimension with numpy's 1-D reductions: the exact
    value, to the last bit, that refine must give that dimension when it
    reduces every dimension in one pass."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    na, nb = len(a), len(b)
    var_a = a.var(ddof=1) if na > 1 else 0.0
    var_b = b.var(ddof=1) if nb > 1 else 0.0
    denom_df = na + nb - 2
    pooled = np.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / denom_df) if denom_df > 0 else 0.0
    if pooled == 0.0:
        return 0.0
    return float((a.mean() - b.mean()) / pooled)


def pitch_direct(frame, sample_rate, fmin=60.0, fmax=400.0, clarity_threshold=0.6):
    """Per-frame port of the normalized-autocorrelation pitch estimator.

    The autocorrelation is summed lag by lag and the peak is searched with
    a loop, as the per-frame code did. Returns Hz, or NaN when unvoiced.
    """
    x = [float(v) for v in frame]
    n = len(x)
    mean = math.fsum(x) / n
    x = [v - mean for v in x]
    if not any(x):
        return math.nan
    lag_min = max(1, int(sample_rate / fmax))
    # keep at least one fmax period of overlap between the two windows
    lag_max = min(n - lag_min, int(math.ceil(sample_rate / fmin)))
    if lag_max <= lag_min:
        return math.nan
    # energies of the leading and trailing n - lag samples
    csum = [0.0]
    for v in x:
        csum.append(csum[-1] + v * v)
    arr = np.array(x)
    norm = {}
    for lag in range(lag_min - 1, min(lag_max + 2, n)):
        r = float(np.dot(arr[:n - lag], arr[lag:]))
        denom = math.sqrt((csum[n - lag] - csum[0]) * (csum[n] - csum[lag]))
        norm[lag] = r / denom if denom > 0 else 0.0
    peak = max(norm[lag] for lag in range(lag_min, lag_max + 1))
    if peak < clarity_threshold:
        return math.nan
    # smallest local maximum within 10% of the peak, else the peak itself
    best = None
    for lag in range(lag_min, lag_max + 1):
        if (norm[lag] >= 0.9 * peak and norm[lag] >= norm[lag - 1]
                and norm[lag] >= norm[min(lag + 1, n - 1)]):
            best = lag
            break
    if best is None:
        best = max(range(lag_min, lag_max + 1), key=lambda lag: (norm[lag], -lag))
    if norm[best] < clarity_threshold:
        return math.nan
    lag = float(best)
    if 1 <= best < n - 1:
        a, b, c = norm[best - 1], norm[best], norm[best + 1]
        curvature = a - 2.0 * b + c
        if curvature != 0.0:
            delta = 0.5 * (a - c) / curvature
            if abs(delta) < 1.0:
                lag = best + delta
    return sample_rate / lag


def predict_direct(model, vector):
    """The one-vector classifier prediction, as it was before predict took
    a batch: margins, calibrated probabilities, and the argmax label.

    Ties break by the fixed class order (angry < calm < panic).
    """
    x = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DataError("feature vector contains non-finite values")
    xs = model.scaler.transform(x)
    margins = model.weights @ xs + model.biases
    z = model.platt_a * margins + model.platt_b
    sig = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
    total = sig.sum()
    probs = sig / total if total > 0 else np.full(len(CLASSES), 1.0 / len(CLASSES))
    best = int(np.argmax(probs))  # argmax takes the first maximum: fixed-order tie-break
    return MlEvidence(label=CLASSES[best], confidence=float(probs[best]),
                      per_class_probs=probs, margins=margins)


def smo_direct(X, y, C, tol, max_iter):
    """The SMO solver as it was before kernel rows were cached: two
    matrix-vector products and the candidates' curvature recomputed every
    iteration. Same working-set rule, stopping rule and bias; returns
    (alphas, b, iterations, violation)."""
    n = len(y)
    alphas = np.zeros(n)
    score = y.copy()
    diag = np.einsum("ij,ij->i", X, X)
    pos = y > 0
    up = pos.copy()
    low = ~pos
    for iteration in range(max_iter):
        i = int(np.argmax(np.where(up, score, -np.inf)))
        m = score[i]
        low_min = np.where(low, score, np.inf).min()
        violation = float(m - low_min)
        if violation <= tol:
            break
        k_i = X @ X[i]
        cand = np.flatnonzero(low & (score < m))
        gain = m - score[cand]
        curv = np.maximum(diag[i] + diag[cand] - 2.0 * k_i[cand], 1e-12)
        j = int(cand[np.argmax(gain * gain / curv)])
        step = (m - score[j]) / max(diag[i] + diag[j] - 2.0 * k_i[j], 1e-12)
        room_i = C - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else C - alphas[j]
        step = min(step, room_i, room_j)
        alphas[i] += y[i] * step
        alphas[j] -= y[j] * step
        if step == room_i:
            alphas[i] = C if pos[i] else 0.0
        if step == room_j:
            alphas[j] = 0.0 if pos[j] else C
        for t in (i, j):
            up[t] = alphas[t] < C if pos[t] else alphas[t] > 0
            low[t] = alphas[t] > 0 if pos[t] else alphas[t] < C
        score -= step * (k_i - X @ X[j])
    else:
        raise DataError(f"SVM solver stopped at its {max_iter}-iteration cap")
    free = up & low
    b = float(score[free].mean()) if free.any() else 0.5 * float(m + low_min)
    return alphas, b, iteration, violation


def mfcc_direct(frames, sample_rate, n_mels=26, n_coeffs=13, fmin=0.0, fmax=8000.0):
    """Per-frame port of the MFCC extractor for a list of windowed frames.

    Triangular mel filters over rfft bins (FFT size the next power of two
    >= frame length), log floor 1e-10, orthonormal DCT-II written out as a
    sum. Returns one list of ``n_coeffs`` coefficients per frame.
    """
    frame_len = len(frames[0])
    nfft = 1 << (frame_len - 1).bit_length()
    lo_mel = 2595.0 * math.log10(1.0 + fmin / 700.0)
    hi_mel = 2595.0 * math.log10(1.0 + fmax / 700.0)
    edges = [700.0 * (10.0 ** ((lo_mel + (hi_mel - lo_mel) * k / (n_mels + 1)) / 2595.0) - 1.0)
             for k in range(n_mels + 2)]
    # each filter as (bin, weight) pairs with a non-zero weight
    filters = []
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        weights = []
        for b in range(nfft // 2 + 1):
            f = b * sample_rate / nfft
            w = max(0.0, min((f - lo) / (center - lo), (hi - f) / (hi - center)))
            if w > 0.0:
                weights.append((b, w))
        filters.append(weights)
    out = []
    for frame in frames:
        spectrum = np.fft.rfft(np.asarray(frame, dtype=np.float64), nfft)
        power = [abs(complex(c)) ** 2 for c in spectrum]
        log_e = [math.log(max(sum(w * power[b] for b, w in weights), 1e-10))
                 for weights in filters]
        coeffs = []
        for k in range(n_coeffs):
            scale = math.sqrt((1.0 if k == 0 else 2.0) / n_mels)
            coeffs.append(scale * sum(e * math.cos(math.pi * k * (2 * m + 1) / (2 * n_mels))
                                      for m, e in enumerate(log_e)))
        out.append(coeffs)
    return out


def vad_direct(x, sample_rate, frame_ms=25.0, hop_ms=10.0, energy_floor_db=-40.0,
               hangover_frames=5):
    """Frame-by-frame port of the energy VAD.

    Each frame's RMS is compared with a floor relative to the peak; a
    hangover counter keeps frames voiced after an active one; a scan finds
    the voiced runs and a pass merges runs whose frame extents overlap.
    Returns a list of (start, end) sample pairs.
    """
    x = [float(v) for v in x]
    peak = max(abs(v) for v in x)
    if peak == 0.0:
        return []
    frame_len = int(round(frame_ms * sample_rate / 1000.0))
    hop_len = int(round(hop_ms * sample_rate / 1000.0))
    thr = peak * 10.0 ** (energy_floor_db / 20.0)
    if len(x) < frame_len:
        whole = math.sqrt(math.fsum(v * v for v in x) / len(x))
        return [(0, len(x))] if whole > thr else []
    n_frames = 1 + (len(x) - frame_len) // hop_len
    voiced = []
    for k in range(n_frames):
        frame = x[k * hop_len:k * hop_len + frame_len]
        voiced.append(math.sqrt(math.fsum(v * v for v in frame) / frame_len) > thr)
    if hangover_frames > 0:
        extended = list(voiced)
        run = 0
        for i in range(n_frames):
            if voiced[i]:
                run = hangover_frames
            elif run > 0:
                extended[i] = True
                run -= 1
        voiced = extended
    intervals = []
    i = 0
    while i < n_frames:
        if voiced[i]:
            j = i
            while j + 1 < n_frames and voiced[j + 1]:
                j += 1
            intervals.append((i * hop_len, min(j * hop_len + frame_len, len(x))))
            i = j + 1
        else:
            i += 1
    merged = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# --- file forms, member by member ---

def rule_to_dict_direct(rule):
    """The rule-file form of one Rule."""
    return {
        "id": rule.id,
        "statement": rule.statement,
        "conditions": [{"dimension": c.dimension,
                        "comparator": c.comparator,
                        "threshold_z": c.threshold_z} for c in rule.conditions],
        "implied_label": rule.implied_label,
        "strength": rule.strength,
        "origin": rule.origin,
    }


def ruleset_to_json_direct(rules):
    """The text of a rule file."""
    return json.dumps({
        "schema": RULES_SCHEMA,
        "version": rules.version,
        "rules": [rule_to_dict_direct(r) for r in rules.rules],
        "confusion_notes": [{"labels": list(n.labels), "text": n.text}
                            for n in rules.confusion_notes],
    }, indent=2)


def proposal_to_dict_direct(proposal):
    """One entry of a proposals file."""
    return {
        "status": proposal.status,
        "base_version": proposal.base_version,
        "candidate": rule_to_dict_direct(proposal.candidate),
        "pattern": {
            "gold": proposal.pattern.gold,
            "predicted": proposal.pattern.predicted,
            "support": proposal.pattern.support,
            "top_deltas": [{"dimension": d.dimension,
                            "effect_size": d.effect_size,
                            "direction": d.direction,
                            "error_median_z": d.error_median_z}
                           for d in proposal.pattern.top_deltas],
        },
    }


def prediction_to_dict_direct(prediction, schema):
    """One line of a predictions file, before its JSON encoding."""
    return {
        "schema": schema,
        "sample_id": prediction.sample_id,
        "label": prediction.label,
        "source": prediction.source,
        "ml_evidence": prediction.ml_evidence.to_dict() if prediction.ml_evidence else None,
        "prompt_version": prediction.prompt_version,
        "rationale": prediction.rationale,
        "reason_code": prediction.reason_code,
        "latency_ms": prediction.latency_ms,
    }


def metrics_to_dict_direct(report):
    """The metrics member of evaluation, run and compare reports."""
    return {
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "n": report.n,
        "per_class": {
            label: {"precision": m.precision, "recall": m.recall,
                    "f1": m.f1, "support": m.support,
                    "zero_division_flag": m.zero_division_flag}
            for label, m in report.per_class.items()
        },
    }


def blend_direct(recipe, other, weight):
    """ClassRecipe.blend with its mixed parameters named one by one."""
    mixed = {name: (1 - weight) * getattr(recipe, name) + weight * getattr(other, name)
             for name in ("base_pitch_hz", "pitch_jitter", "energy_level",
                          "energy_jitter", "modulation_rate_hz", "pitch_var",
                          "jitter_var", "energy_var", "ejitter_var",
                          "rate_var", "harmonics")}
    return type(recipe)(pitch_waveform=recipe.pitch_waveform, **mixed)


# -- the frame DSP and the corpus generator in their earlier forms -------------
#
# One pass over the whole frame matrix with fresh temporaries, and one
# sample after another on the calling thread. The package now works in
# blocks of rows through per-thread scratch buffers and on the shared
# pool; these keep the arithmetic it must reproduce bit for bit.

def estimate_pitch_whole(frames, sample_rate):
    """features.estimate_pitch over the whole matrix at once."""
    x = np.asarray(frames, dtype=np.float64)
    rows = np.arange(x.shape[0])
    n = x.shape[1]
    pitch = np.full(len(rows), UNVOICED)
    lag_min = max(1, int(sample_rate / PITCH_FMAX))
    lag_max = min(n - lag_min, int(math.ceil(sample_rate / PITCH_FMIN)))
    if lag_max <= lag_min:
        return pitch
    floor = n * np.finfo(np.float64).eps * np.abs(x).max(axis=1)
    x = x - x.mean(axis=1, keepdims=True)
    has_signal = np.abs(x).max(axis=1) > floor
    n_lags = min(n, lag_max + 2)
    lo = lag_min - 1
    nfft = scipy.fft.next_fast_len(n + n_lags - 1, real=True)
    spec = np.fft.rfft(x, nfft, axis=1)
    acf = np.fft.irfft(np.conj(spec) * spec, nfft, axis=1)[:, lo:n_lags]
    csum = np.concatenate((np.zeros((len(rows), 1)), np.cumsum(x * x, axis=1)), axis=1)
    e0 = csum[:, n - lo:n - n_lags:-1]
    e1 = csum[:, n:] - csum[:, lo:n_lags]
    denom = np.sqrt(e0 * e1)
    for row, col in zip(*np.nonzero(denom < 1e-6 * csum[:, n:])):
        lag = lo + col
        acf[row, col] = np.dot(x[row, :n - lag], x[row, lag:])
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(denom > 0, acf / denom, 0.0)
    width = lag_max - lag_min + 1
    window = norm[:, 1:width + 1]
    peak = window.max(axis=1, keepdims=True)
    near = (window >= 0.9 * peak) & (window >= norm[:, :width])
    right = norm[:, 2:width + 2]
    near[:, :right.shape[1]] &= window[:, :right.shape[1]] >= right
    best = lag_min + np.where(near.any(axis=1), near.argmax(axis=1), window.argmax(axis=1))
    clarity = norm[rows, best - lo]
    voiced = has_signal & (clarity >= VOICING_CLARITY)
    a = norm[rows, best - 1 - lo]
    c = norm[rows, np.minimum(best + 1, n_lags - 1) - lo]
    curvature = a - 2.0 * clarity + c
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (a - c) / curvature
    refine = (best < n_lags - 1) & (curvature != 0.0) & (np.abs(delta) < 1.0)
    lag = np.where(refine, best + delta, best)
    pitch[voiced] = sample_rate / lag[voiced]
    return pitch


def mfcc_whole(frames, sample_rate):
    """features.mfcc over the whole matrix, or one frame, at once."""
    x = np.asarray(frames, dtype=np.float64)
    nfft = 1 << (x.shape[-1] - 1).bit_length()
    power = np.abs(np.fft.rfft(x, nfft, axis=-1)) ** 2
    fb = mel_filterbank(N_MELS, nfft, sample_rate, MEL_FMIN, MEL_FMAX)
    log_e = np.log(np.maximum(np.einsum("...k,mk->...m", power, fb), 1e-10))
    coeffs = scipy.fft.dct(log_e, type=2, norm="ortho", axis=-1)
    return coeffs[..., :N_MFCC]


def rms_energy_whole(frames):
    """features.rms_energy over the whole matrix at once."""
    x = np.asarray(frames, dtype=np.float64)
    return np.sqrt(np.mean(x * x, axis=1))


def extract_series_whole(signal):
    """features.extract_series through the three whole-matrix forms:
    (pitch, energy, mfcc)."""
    frames = frame_signal(signal)
    return (estimate_pitch_whole(frames, signal.sample_rate), rms_energy_whole(frames),
            mfcc_whole(frames * np.hanning(frames.shape[1]), signal.sample_rate))


def synthesize_whole(recipe, rng, duration_s, sample_rate):
    """corpus._synthesize with a fresh array for every step."""
    n = int(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    base = recipe.base_pitch_hz * (1.0 + recipe.pitch_var * rng.standard_normal())
    p_jit = max(0.0, recipe.pitch_jitter * (1.0 + recipe.jitter_var * rng.standard_normal()))
    energy = max(0.01, recipe.energy_level * (1.0 + recipe.energy_var * rng.standard_normal()))
    e_jit = max(0.0, recipe.energy_jitter * (1.0 + recipe.ejitter_var * rng.standard_normal()))
    rate = max(0.2, recipe.modulation_rate_hz * (1.0 + recipe.rate_var * rng.standard_normal()))
    phi_p, phi_e = rng.uniform(0, 2 * np.pi, size=2)
    h2, h3 = rng.uniform(0.0, recipe.harmonics, size=2)
    phi_h2, phi_h3 = rng.uniform(0, 2 * np.pi, size=2)
    modulator = np.sin(2 * np.pi * rate * t + phi_p)
    if recipe.pitch_waveform == "flat":
        modulator = np.tanh(2.5 * modulator) / np.tanh(2.5)
    freq = base * (1.0 + p_jit * modulator)
    freq = np.clip(freq, 65.0, 395.0)
    phase = 2 * np.pi * np.cumsum(freq) / sample_rate
    carrier = (np.sin(phase) + h2 * np.sin(2 * phase + phi_h2)
               + h3 * np.sin(3 * phase + phi_h3))
    carrier /= math.sqrt(1.0 + h2 * h2 + h3 * h3)
    amp = energy * (1.0 + e_jit * np.sin(2 * np.pi * rate * 1.3 * t + phi_e))
    amp = np.maximum(amp, 0.02 * energy)
    x = amp * carrier + 0.002 * rng.standard_normal(n)
    x = np.clip(x, -PEAK_REFERENCE + 1e-6, PEAK_REFERENCE - 1e-6)
    x[0] = PEAK_REFERENCE
    return x


def synthetic_corpus_serial(recipe, out_dir):
    """corpus.generate_synthetic_corpus one sample after another on the
    calling thread, through synthesize_whole."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    n_blend = int(round(recipe.overlap * recipe.n_per_class))
    n_variant = int(math.ceil(recipe.variant_fraction * recipe.n_per_class))
    blend_partner = {"angry": "panic", "panic": "angry"}
    for ci, label in enumerate(CLASSES):
        class_recipe = recipe.classes[label]
        for i in range(recipe.n_per_class):
            active = class_recipe
            if label in recipe.variants and i < n_variant:
                active = recipe.variants[label]
            elif label in blend_partner and i < n_blend:
                active = class_recipe.blend(recipe.classes[blend_partner[label]], 0.5)
            rng = np.random.default_rng([recipe.seed, ci, i])
            x = synthesize_whole(active, rng, recipe.duration_s, recipe.sample_rate)
            sample_id = f"{label}_{i:03d}"
            path = os.path.join(out_dir, sample_id + ".wav")
            save_wav(path, AudioSignal(x, recipe.sample_rate))
            entries.append(ManifestEntry(
                sample_id=sample_id, audio_path=path, gold=label,
                source_kind="synthetic", duration_s=recipe.duration_s))
    save_manifest(os.path.join(out_dir, "manifest.csv"), entries)
    return entries


# -- the label counts in their earlier forms ------------------------------------

def metrics_by_id(preds, gold):
    """The metrics report of two mappings sample_id -> label that cover
    the same ids, counted in sorted id order."""
    preds = dict(preds)
    gold = dict(gold)
    if not preds or not gold:
        raise DataError("metrics need at least one sample")
    if set(preds) != set(gold):
        raise DataError("prediction/gold ids differ")
    cm = np.zeros((len(CLASSES), len(CLASSES)), dtype=np.int64)
    for i in sorted(preds):
        cm[CLASSES.index(gold[i]), CLASSES.index(preds[i])] += 1
    n = int(cm.sum())
    per_class = {}
    for k, label in enumerate(CLASSES):
        tp = float(cm[k, k])
        pred_pos = float(cm[:, k].sum())
        gold_pos = float(cm[k, :].sum())
        flag = pred_pos == 0 or gold_pos == 0
        precision = tp / pred_pos if pred_pos > 0 else 0.0
        recall = tp / gold_pos if gold_pos > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[label] = ClassMetrics(precision=precision, recall=recall, f1=f1,
                                        support=int(gold_pos), zero_division_flag=flag)
    macro_p = sum(m.precision for m in per_class.values()) / len(CLASSES)
    macro_r = sum(m.recall for m in per_class.values()) / len(CLASSES)
    macro_f = sum(m.f1 for m in per_class.values()) / len(CLASSES)
    return MetricsReport(accuracy=float(np.trace(cm)) / n, macro_precision=macro_p,
                         macro_recall=macro_r, macro_f1=macro_f,
                         per_class=per_class, n=n, confusion=cm)


def cohens_kappa_by_index(a, b):
    """Cohen's kappa of two aligned label sequences of equal length >= 2,
    counted into a table over the labels present, in sorted order."""
    cats = sorted(set(a) | set(b))
    idx = {c: i for i, c in enumerate(cats)}
    m = np.zeros((len(cats), len(cats)), dtype=np.float64)
    for x, y in zip(a, b):
        m[idx[x], idx[y]] += 1
    n = m.sum()
    p_o = float(np.trace(m)) / n
    p_e = float(np.sum(m.sum(axis=1) * m.sum(axis=0))) / (n * n)
    if p_e == 1.0:
        return None
    return (p_o - p_e) / (1.0 - p_e)
