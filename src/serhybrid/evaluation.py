"""Classification metrics and inter-annotator agreement statistics.

Zero-division conventions are explicit: precision/recall with an empty
denominator are 0 and flagged; kappa statistics return None, as undefined,
when expected agreement is 1 (a single category everywhere).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .labels import CLASS_INDEX, CLASSES


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    zero_division_flag: bool = False


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: dict  # label -> ClassMetrics
    n: int
    # 3x3 counts, rows gold, columns predicted; not part of to_dict
    confusion: np.ndarray = field(compare=False, repr=False)

    def render_confusion(self):
        """The confusion counts as a text table, gold rows by predicted columns."""
        width = max(7, max(len(c) for c in CLASSES) + 1)
        lines = ["gold \\ pred".ljust(width) + "".join(c.rjust(width) for c in CLASSES)]
        for label, row in zip(CLASSES, self.confusion.tolist()):
            lines.append(label.ljust(width) + "".join(str(v).rjust(width) for v in row))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "n": self.n,
            "per_class": {
                label: {"precision": m.precision, "recall": m.recall,
                        "f1": m.f1, "support": m.support,
                        "zero_division_flag": m.zero_division_flag}
                for label, m in self.per_class.items()
            },
        }


def confusion_counts(pred_labels, gold_labels):
    """3x3 counts, rows gold, columns predicted, fixed class order."""
    m = np.zeros((len(CLASSES), len(CLASSES)), dtype=np.int64)
    for p, g in zip(pred_labels, gold_labels):
        m[CLASS_INDEX[g], CLASS_INDEX[p]] += 1
    return m


def metrics(preds, gold):
    """Accuracy, per-class precision/recall/F1 and macro averages.

    ``preds`` and ``gold`` are mappings sample_id -> label (or aligned
    lists of (sample_id, label) pairs); they must cover the same ids.
    """
    preds = dict(preds)
    gold = dict(gold)
    if not preds or not gold:
        raise DataError("metrics need at least one sample")
    if set(preds) != set(gold):
        only_p = sorted(set(preds) - set(gold))[:3]
        only_g = sorted(set(gold) - set(preds))[:3]
        raise DataError(f"prediction/gold ids differ (e.g. {only_p} vs {only_g})")
    ids = sorted(preds)
    cm = confusion_counts([preds[i] for i in ids], [gold[i] for i in ids])
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


def _validate_table(table):
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[0] < 2:
        raise DataError("annotation table must be 2-D with >= 2 items")
    if not np.issubdtype(t.dtype, np.integer):
        if not np.all(t == np.floor(t)):
            raise DataError("annotation counts must be integers")
        t = t.astype(np.int64)
    if np.any(t < 0):
        raise DataError("annotation counts must be non-negative")
    row_sums = t.sum(axis=1)
    if len(set(row_sums.tolist())) != 1 or row_sums[0] < 2:
        raise DataError("every item must have the same number of raters (>= 2)")
    return t


def fleiss_kappa(table):
    """Fleiss' kappa over an N x categories matrix of per-item rating counts.

    Returns None (undefined) when expected agreement is 1 (every rating in
    a single category).
    """
    t = _validate_table(table).astype(np.float64)
    n_items, _ = t.shape
    n_raters = float(t[0].sum())
    p_i = (np.sum(t * t, axis=1) - n_raters) / (n_raters * (n_raters - 1.0))
    p_bar = float(np.mean(p_i))
    p_j = t.sum(axis=0) / (n_items * n_raters)
    p_e = float(np.sum(p_j * p_j))
    if p_e == 1.0:
        return None
    return (p_bar - p_e) / (1.0 - p_e)


def cohens_kappa(a, b):
    """Cohen's kappa between two aligned label sequences.

    Returns None (undefined) when expected agreement is 1.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise DataError(f"label sequences differ in length: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise DataError("need at least 2 items")
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


def compare_report(runs):
    """Version-comparison table: Acc to 2 decimals (percent), Prec/Rec to 2,
    F1 to 3. ``runs`` is a list of (version name, metrics report); returns
    (text_table, json_doc), with one row per run in input order."""
    if not runs:
        raise DataError("compare_report needs at least one run")
    header = f"{'Version':<12} {'Acc (%)':>8} {'Prec':>6} {'Rec':>6} {'F1':>7}"
    lines = [header, "-" * len(header)]
    doc_rows = []
    for version, rep in runs:
        lines.append(f"{version:<12} {rep.accuracy * 100:>8.2f} "
                     f"{rep.macro_precision:>6.2f} {rep.macro_recall:>6.2f} "
                     f"{rep.macro_f1:>7.3f}")
        doc_rows.append({
            "version": version,
            "accuracy_pct": round(rep.accuracy * 100, 2),
            "precision": round(rep.macro_precision, 2),
            "recall": round(rep.macro_recall, 2),
            "f1": round(rep.macro_f1, 3),
            "full": rep.to_dict(),
        })
    text = "\n".join(lines)
    return text, {"schema": "serhybrid-compare-v1", "rows": doc_rows}
