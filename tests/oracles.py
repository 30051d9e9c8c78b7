"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python (loops, Counter,
Fraction) rather than vectorized numpy, so a shared bug with the package
implementations is unlikely. The DSP references keep numpy only for one
dot product or one FFT per frame. ``smo_direct`` is the exception: it is
the solver's earlier numpy form, kept so the cached solver can be held to
it bit for bit. The ``*_direct`` file forms at the end spell out each
written file's members one by one, as the writers once did, so the
writers derived from their dataclasses can be held to them byte for byte.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from serhybrid.classifier import MlEvidence
from serhybrid.errors import DataError
from serhybrid.features import FeatureVector
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
    x = vector.values if isinstance(vector, FeatureVector) else np.asarray(vector, dtype=np.float64)
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
