"""Linear multiclass SVM with calibrated confidence.

Three one-vs-rest heads trained by SMO on the dual with a linear kernel,
followed by per-head Platt scaling of the decision values. Probabilities
are the normalized Platt sigmoids; confidence is their maximum. Training
is deterministic: the working set is chosen by a fixed rule, not drawn.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, member, parse_json, read_text, write_text
from .features import DIMENSIONS, CorpusStats, finite_array
from .labels import CLASSES

MODEL_SCHEMA = "serhybrid-svm-v1"

# iteration cap per head: max(MAX_ITER_FLOOR, 100 n), as in LIBSVM
MAX_ITER_FLOOR = 10_000_000

# every head is solved at LIBSVM's defaults (Chang & Lin, ACM TIST 2011):
# penalty C = 1 and KKT tolerance 1e-3 on standardized features
C = 1.0
TOL = 1e-3

# bound on the kernel rows a training run keeps: a row and its curvature
# for every sample fit at the paper's 2,763 clips (2 * 2,763**2 * 8 B)
ROW_CACHE_BYTES = 128 * 2**20


def _as_matrix(vectors):
    """(n, n_dims) float matrix of a list of feature vectors or of a
    matrix; no rows give a (0, n_dims) matrix. Rows that are not n_dims
    numbers each, or a non-finite value, raise DataError."""
    try:
        X = np.asarray(vectors, dtype=np.float64).reshape(len(vectors), len(DIMENSIONS))
    except (TypeError, ValueError):  # not rows, or rows of another length
        raise DataError(f"feature vectors must be rows of {len(DIMENSIONS)} numbers")
    if not np.all(np.isfinite(X)):
        raise DataError("feature matrix contains non-finite values")
    return X


class _KernelRows:
    """Kernel rows of a training matrix X: ``rows[t]`` is ``X @ X[t]`` and
    the pair curvature ``max(K_tt + K_ss - 2 K_ts, 1e-12)`` over s, both
    read-only. Rows are kept as computed while they fit in ROW_CACHE_BYTES
    and computed on each use after that; kept or not, the floats are equal."""

    def __init__(self, X):
        self.X = X
        self.diag = np.einsum("ij,ij->i", X, X)
        self._rows = {}

    def __getitem__(self, t):
        if t in self._rows:
            return self._rows[t]
        k_t = self.X @ self.X[t]
        curv = np.maximum(self.diag[t] + self.diag - 2.0 * k_t, 1e-12)
        k_t.flags.writeable = curv.flags.writeable = False
        if (len(self._rows) + 1) * (k_t.nbytes + curv.nbytes) <= ROW_CACHE_BYTES:
            self._rows[t] = k_t, curv
        return k_t, curv


def _smo_binary(rows, y, C, tol, max_iter):
    """SMO with second-order working-set selection (Fan, Chen & Lin, JMLR
    2005; the LIBSVM rule) on the linear-kernel dual

        min 1/2 a'Qa - sum(a),  0 <= a <= C,  y'a = 0,  Q_st = y_s y_t x_s.x_t

    y in {-1, +1}. Kernel rows come from ``rows``, a _KernelRows over the
    training matrix; they do not depend on y, so heads may share it. Stops
    when the maximal KKT violation m(a) - M(a) is <= tol. The bias is the
    mean score of the free vectors or, with none, (m + M) / 2, as in
    LIBSVM. Returns (alphas, b, iterations, violation).

    An iteration allocates no array: the index sets are penalty vectors
    added to the score in one scratch buffer, and j is the first maximum of
    max(m - score, 0)^2 / curv_i over the low set, where the clamp zeroes
    every non-candidate and the best candidate's gain is at least the
    violation (> tol), so the same j wins as over the candidates alone.
    """
    n = len(y)
    C = float(C)
    alphas = [0.0] * n  # Python floats: cheaper scalar arithmetic than numpy scalars
    signs = y.tolist()
    pos = [s > 0 for s in signs]
    score = y.copy()  # -y * gradient, the gradient being Q a - 1
    # up: alpha may move towards y (a < C if y = +1, a > 0 if y = -1);
    # low: alpha may move against y. 0 in the set, -inf / +inf out of it
    pen_up = np.where(y > 0, 0.0, -np.inf)
    pen_low = np.where(y > 0, np.inf, 0.0)
    buf = np.empty(n)
    for iteration in range(max_iter):
        i = int(np.add(score, pen_up, out=buf).argmax())
        m = score[i]
        np.add(score, pen_low, out=buf)
        low_min = buf[buf.argmin()]
        violation = float(m - low_min)
        if violation <= tol:
            break
        k_i, curv_i = rows[i]
        np.subtract(m, buf, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.square(buf, out=buf)
        j = int(np.divide(buf, curv_i, out=buf).argmax())
        step = float((m - score[j]) / curv_i[j])
        a_i, a_j = alphas[i], alphas[j]
        room_i = C - a_i if pos[i] else a_i
        room_j = a_j if pos[j] else C - a_j
        step = min(step, room_i, room_j)
        a_i += signs[i] * step
        a_j -= signs[j] * step
        # land exactly on a bound the step was clipped to
        if step == room_i:
            a_i = C if pos[i] else 0.0
        if step == room_j:
            a_j = 0.0 if pos[j] else C
        alphas[i], alphas[j] = a_i, a_j
        for t, a_t in ((i, a_i), (j, a_j)):
            up = a_t < C if pos[t] else a_t > 0.0
            low = a_t > 0.0 if pos[t] else a_t < C
            pen_up[t] = 0.0 if up else -np.inf
            pen_low[t] = 0.0 if low else np.inf
        np.subtract(k_i, rows[j][0], out=buf)
        score -= np.multiply(buf, step, out=buf)
    else:
        raise DataError(f"SVM solver stopped at its {max_iter}-iteration cap with KKT "
                        f"violation {violation:.3g} > tol {tol:g}")
    alphas = np.array(alphas)
    # at the optimum score = b on the free vectors and m <= b <= M otherwise
    free = (alphas > 0.0) & (alphas < C)
    b = float(score[free].mean()) if free.any() else 0.5 * float(m + low_min)
    return alphas, b, iteration, violation


def _fit_platt(decision, target):
    """Platt's sigmoid fit (Lin/Weng/Keerthi variant): returns (A, B) such
    that P(positive | f) = 1 / (1 + exp(A*f + B))."""
    max_iter, min_step, sigma = 100, 1e-10, 1e-12  # LIBSVM's sigmoid_train values
    f = np.asarray(decision, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    prior1 = float(t.sum())
    prior0 = float(len(t) - prior1)
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    ty = np.where(t > 0, hi, lo)
    a, b = 0.0, np.log((prior0 + 1.0) / (prior1 + 1.0))

    def objective(a_, b_):
        z = a_ * f + b_
        # stable log(1 + exp(z)) formulation
        return float(np.sum(np.where(z >= 0,
                                     ty * z + np.log1p(np.exp(-z)),
                                     (ty - 1.0) * z + np.log1p(np.exp(z)))))

    fval = objective(a, b)
    for _ in range(max_iter):
        z = a * f + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        q = 1.0 - p
        d1 = ty - p
        d2 = p * q
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.sum(f * f * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(f * d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            new_a, new_b = a + step * da, b + step * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            break
    # (a, b) already satisfy P = 1 / (1 + exp(a*f + b)); a < 0 when larger
    # margins mean the positive class
    return a, b


@dataclass(frozen=True)
class MlEvidence:
    """Classifier output for one sample."""

    label: str
    confidence: float
    per_class_probs: np.ndarray  # ordered per CLASSES
    margins: np.ndarray

    def to_dict(self):
        return {
            "label": self.label,
            "confidence": repr(self.confidence),
            "per_class_probs": [repr(float(p)) for p in self.per_class_probs],
            "margins": [repr(float(m)) for m in self.margins],
        }

    @classmethod
    def from_dict(cls, doc, where, error):
        """The evidence ``to_dict`` wrote: a label of CLASSES, a confidence,
        and one probability and one margin per class, each number finite
        and written as a number or a numeric string. ``error`` names
        ``where`` otherwise."""
        k = len(CLASSES)
        probs = member(doc, "per_class_probs", list, where, error)
        margins = member(doc, "margins", list, where, error)
        if len(probs) != k or len(margins) != k:
            raise error(f"{where}: per_class_probs and margins must hold {k} numbers each, "
                        f"got {len(probs)} and {len(margins)}")
        # the seven numbers in one finite_array call: read_predictions makes
        # it for every line, and each call costs about 1.5 us
        numbers = finite_array([doc.get("confidence"), *probs, *margins], (2 * k + 1,),
                               f"{where}: confidence, per_class_probs and margins", error)
        return cls(label=member(doc, "label", str, where, error, CLASSES),
                   confidence=float(numbers[0]),
                   per_class_probs=numbers[1:k + 1], margins=numbers[k + 1:])


@dataclass(frozen=True)
class SvmModel:
    """One-vs-rest linear SVM with Platt parameters per head."""

    weights: np.ndarray        # (3, n_dims)
    biases: np.ndarray         # (3,)
    platt_a: np.ndarray        # (3,)
    platt_b: np.ndarray        # (3,)
    scaler: CorpusStats
    meta: dict                 # C, tol; per head: support, iterations, KKT violation

    def to_json(self):
        return json.dumps({
            "schema": MODEL_SCHEMA,
            "classes": list(CLASSES),
            "weights": [[repr(float(w)) for w in row] for row in self.weights],
            "biases": [repr(float(b)) for b in self.biases],
            "platt_a": [repr(float(a)) for a in self.platt_a],
            "platt_b": [repr(float(b)) for b in self.platt_b],
            "scaler": {
                "mean": [repr(float(m)) for m in self.scaler.mean],
                "std": [repr(float(s)) for s in self.scaler.std],
                "zero_variance": list(self.scaler.zero_variance),
            },
            "meta": self.meta,
        }, indent=2)

    @classmethod
    def from_json(cls, text):
        doc = parse_json(text, "model", DataError, MODEL_SCHEMA)
        classes = member(doc, "classes", list, "model", DataError)
        if classes != list(CLASSES):
            raise DataError(f"model: classes {classes!r}, expected {list(CLASSES)}")
        heads, dims = (len(CLASSES),), (len(DIMENSIONS),)

        def array(key, shape):
            return finite_array(member(doc, key, list, "model", DataError), shape,
                                f"model: {key}", DataError)

        return cls(weights=array("weights", heads + dims), biases=array("biases", heads),
                   platt_a=array("platt_a", heads), platt_b=array("platt_b", heads),
                   scaler=CorpusStats.checked(member(doc, "scaler", dict, "model", DataError),
                                              "model: scaler", DataError),
                   meta=member(doc, "meta", dict, "model", DataError))

    def save(self, path):
        write_text(path, self.to_json())

    @classmethod
    def load(cls, path):
        return cls.from_json(read_text(path, DataError))


def train(vectors, labels):
    """Train the 3-class one-vs-rest model on feature vectors and their labels.

    Requires all three classes in ``labels``. Each head is solved at C
    until its maximal KKT violation is <= TOL. Platt parameters are fit on
    the training decision values (no inner CV).
    """
    labels = list(labels)
    present = set(labels)
    if present != set(CLASSES):
        raise DataError(f"need all classes {CLASSES}, got {sorted(present)}")
    X_raw = _as_matrix(vectors)
    scaler = CorpusStats.from_matrix(X_raw)
    X = scaler.transform(X_raw)
    max_iter = max(MAX_ITER_FLOOR, 100 * len(labels))
    weights = np.zeros((len(CLASSES), X.shape[1]))
    biases = np.zeros(len(CLASSES))
    platt_a = np.zeros(len(CLASSES))
    platt_b = np.zeros(len(CLASSES))
    support, iterations, violations = [], [], []
    rows = _KernelRows(X)
    for k, cls_label in enumerate(CLASSES):
        y = np.where(np.array(labels) == cls_label, 1.0, -1.0)
        alphas, b, n_iter, violation = _smo_binary(rows, y, C, TOL, max_iter)
        w = (alphas * y) @ X
        decision = X @ w + b
        a_k, b_k = _fit_platt(decision, (y > 0).astype(float))
        weights[k] = w
        biases[k] = b
        platt_a[k] = a_k
        platt_b[k] = b_k
        support.append(int(np.count_nonzero(alphas > 0)))
        iterations.append(n_iter)
        violations.append(violation)
    meta = {"C": C, "tol": TOL, "support_counts": support,
            "iterations": iterations, "kkt_violation": violations}
    return SvmModel(weights=weights, biases=biases, platt_a=platt_a,
                    platt_b=platt_b, scaler=scaler, meta=meta)


def predict(model, vectors):
    """Margins, calibrated probabilities, and the argmax label of each row.

    ``vectors`` is a list or matrix of feature vectors, giving a list with
    one MlEvidence per row, or one feature vector (a 1-D array), giving one
    MlEvidence. Ties break by the fixed class order (angry < calm < panic).
    """
    single = getattr(vectors, "ndim", None) == 1
    X = _as_matrix([vectors] if single else vectors)
    Xs = model.scaler.transform(X)
    # a stacked matrix-vector product sums each row in the order the
    # one-vector product does, so batched margins equal per-row ones bit
    # for bit; X @ W.T reorders the sums and moves the last ulp
    margins = np.matmul(model.weights, Xs[:, :, None])[..., 0] + model.biases
    z = model.platt_a * margins + model.platt_b
    # np.where computes both branches: exp may overflow in the one it drops
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sig = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        total = sig.sum(axis=1, keepdims=True)
        probs = np.where(total > 0, sig / total, 1.0 / len(CLASSES))
    best = probs.argmax(axis=1)  # the first maximum: fixed-order tie-break
    evidence = [MlEvidence(label=CLASSES[k], confidence=float(p[k]),
                           per_class_probs=p, margins=m)
                for k, p, m in zip(best.tolist(), probs, margins)]
    return evidence[0] if single else evidence
