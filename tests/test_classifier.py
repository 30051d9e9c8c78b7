"""Standardizer, SVM training, calibration, and model serialization."""

import inspect
import json
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from serhybrid import classifier
from serhybrid.classifier import (MlEvidence, SvmModel, _KernelRows, _smo_binary,
                                  predict, train)
from serhybrid.errors import DataError
from serhybrid.features import DIM_INDEX, DIMENSIONS, CorpusStats
from serhybrid.labels import CLASSES


def _blobs(seed=0, n_per_class=10, spread=0.3):
    """Three Gaussian blobs in feature space; well separated at the default
    spread, overlapping from a spread of a few units."""
    rng = np.random.default_rng(seed)
    centers = {
        "angry": ("energy_mean", 6.0),
        "calm": ("pitch_std", -6.0),
        "panic": ("pitch_std", 6.0),
    }
    vectors, labels = [], []
    for label, (dim, value) in centers.items():
        for _ in range(n_per_class):
            values = rng.normal(scale=spread, size=len(DIMENSIONS))
            values[DIM_INDEX[dim]] += value
            vectors.append(values)
            labels.append(label)
    return vectors, labels


class TestScaler:
    """The classifier standardizes with features.CorpusStats."""

    def test_mean_std(self):
        vectors, labels = _blobs()
        scaler = CorpusStats.from_vectors(vectors)
        X = np.stack(vectors)
        assert np.allclose(scaler.mean, X.mean(axis=0))
        assert np.allclose(scaler.std, np.maximum(X.std(axis=0), 1e-8))
        model = train(vectors, labels)
        assert np.array_equal(model.scaler.mean, scaler.mean)
        assert np.array_equal(model.scaler.std, scaler.std)

    def test_too_few_samples(self):
        with pytest.raises(DataError, match=r"need all classes .* got \['calm'\]"):
            train([np.zeros(len(DIMENSIONS))], ["calm"])

    def test_zero_variance_flagged(self):
        base = np.zeros(len(DIMENSIONS))
        a = base.copy()
        a[0] = 1.0
        scaler = CorpusStats.from_vectors([base, a])
        assert DIMENSIONS[1] in scaler.zero_variance
        assert DIMENSIONS[0] not in scaler.zero_variance
        assert scaler.std[1] == 1e-8

    def test_non_finite_rejected(self):
        vectors, labels = _blobs()
        bad = vectors[0].copy()
        bad[3] = np.nan
        with pytest.raises(DataError, match="feature matrix contains non-finite values"):
            train([bad] + vectors[1:], labels)


class TestTrain:
    def test_separable_blobs_perfect_training_accuracy(self):
        vectors, labels = _blobs(seed=2)
        model = train(vectors, labels)
        preds = [predict(model, v).label for v in vectors]
        assert preds == labels

    def test_probabilities_normalized(self):
        vectors, labels = _blobs(seed=2)
        model = train(vectors, labels)
        for v in vectors:
            evidence = predict(model, v)
            assert abs(float(evidence.per_class_probs.sum()) - 1.0) < 1e-9
            assert evidence.confidence == float(evidence.per_class_probs.max())

    def test_retrain_is_bit_identical(self):
        vectors, labels = _blobs(seed=2)
        first = train(vectors, labels)
        second = train(vectors, labels)
        assert first.to_json() == second.to_json()

    def test_missing_class_rejected(self):
        vectors, labels = _blobs()
        kept = [(v, y) for v, y in zip(vectors, labels) if y != "panic"]
        with pytest.raises(DataError, match=r"need all classes .* got \['angry', 'calm'\]"):
            train([v for v, _ in kept], [y for _, y in kept])

    def test_solved_at_libsvm_defaults(self):
        vectors, labels = _blobs()
        meta = train(vectors, labels).meta
        assert (meta["C"], meta["tol"]) == (classifier.C, classifier.TOL) == (1.0, 1e-3)

    @pytest.mark.parametrize("vectors", [
        [np.zeros(5)] * 3, [np.zeros(len(DIMENSIONS) + 1)] * 3, np.zeros(5),
        np.zeros((3, 2, len(DIMENSIONS))), [np.zeros(5), np.zeros(len(DIMENSIONS))] * 2,
    ], ids=["short-rows", "long-rows", "one-short-vector", "3-d", "ragged"])
    def test_wrong_shape_rejected(self, vectors):
        # a row that is not 37 values is rejected where rows enter the classifier
        model = train(*_blobs())
        with pytest.raises(DataError, match="feature"):
            train(vectors, list(CLASSES * 2)[:len(vectors)])
        with pytest.raises(DataError, match="feature"):
            predict(model, vectors)

    def test_non_finite_vector_rejected_at_predict(self):
        vectors, labels = _blobs()
        model = train(vectors, labels)
        bad = np.zeros(len(DIMENSIONS))
        bad[0] = np.inf
        with pytest.raises(DataError, match="feature matrix contains non-finite values"):
            predict(model, bad)


class TestSolver:
    def _overlap(self):
        vectors, labels = _blobs(seed=1, n_per_class=30, spread=8.0)
        model = train(vectors, labels)
        X = model.scaler.transform(np.stack(vectors))
        return model, X, np.array(labels)

    def test_every_head_stops_within_tol(self):
        model, _, _ = self._overlap()
        assert len(model.meta["kkt_violation"]) == len(CLASSES)
        assert all(v <= model.meta["tol"] for v in model.meta["kkt_violation"])
        assert all(n > 0 for n in model.meta["iterations"])

    def test_duality_gap_small(self):
        model, X, labels = self._overlap()
        C = model.meta["C"]
        for k, label in enumerate(CLASSES):
            y = np.where(labels == label, 1.0, -1.0)
            alphas, _, _, _ = _smo_binary(_KernelRows(X), y, C, model.meta["tol"], 10_000_000)
            w = (alphas * y) @ X
            assert np.array_equal(w, model.weights[k])
            hinge = np.maximum(0.0, 1.0 - y * (X @ w + model.biases[k])).sum()
            primal = 0.5 * w @ w + C * hinge
            dual = alphas.sum() - 0.5 * w @ w
            assert 0.0 <= primal - dual <= 1e-3 * primal

    def test_bias_without_free_vectors_is_midpoint(self):
        # both alphas end at C = 0.1, so w = 0.2 and any b in [-1.2, 0.4]
        # gives the same hinge sum; the solver takes the midpoint
        X = np.array([[3.0], [1.0]])
        alphas, b, _, _ = _smo_binary(_KernelRows(X), np.array([1.0, -1.0]), 0.1, 1e-3, 100)
        assert alphas.tolist() == [0.1, 0.1]
        assert b == pytest.approx(-0.4)

    def test_iteration_cap_is_a_data_error(self):
        vectors, labels = _blobs(seed=1, n_per_class=30, spread=8.0)
        X = CorpusStats.from_vectors(vectors).transform(np.stack(vectors))
        y = np.where(np.array(labels) == "calm", 1.0, -1.0)
        with pytest.raises(DataError, match="SVM solver stopped at its 3-iteration cap") as info:
            _smo_binary(_KernelRows(X), y, 1.0, 1e-3, 3)
        assert "\n" not in str(info.value)


def _scaled_blobs(spread):
    vectors, labels = _blobs(seed=1, n_per_class=30, spread=spread)
    X = CorpusStats.from_vectors(vectors).transform(np.stack(vectors))
    return X, np.array(labels)


class TestCachedSolverParity:
    """The cached solver repeats the uncached one bit for bit."""

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("spread", [0.3, 2.0, 6.0])
    def test_matches_uncached_solver(self, spread, C):
        X, labels = _scaled_blobs(spread)
        rows = _KernelRows(X)  # shared by the heads, as train shares it
        for label in CLASSES:
            y = np.where(labels == label, 1.0, -1.0)
            alphas, b, n_iter, violation = _smo_binary(rows, y, C, 1e-3, 10_000_000)
            want = oracles.smo_direct(X, y, C, 1e-3, 10_000_000)
            assert np.array_equal(alphas, want[0])
            assert (b, n_iter, violation) == want[1:]

    def test_rows_beyond_the_bound_are_computed_on_use(self, monkeypatch):
        X, labels = _scaled_blobs(6.0)
        # room for two rows and their curvatures
        monkeypatch.setattr(classifier, "ROW_CACHE_BYTES", 2 * 2 * X.shape[0] * 8)
        rows = _KernelRows(X)
        y = np.where(labels == "calm", 1.0, -1.0)
        alphas, b, n_iter, violation = _smo_binary(rows, y, 1.0, 1e-3, 10_000_000)
        want = oracles.smo_direct(X, y, 1.0, 1e-3, 10_000_000)
        assert np.array_equal(alphas, want[0])
        assert (b, n_iter, violation) == want[1:]
        assert len(rows._rows) == 2 < n_iter

    def test_rows_are_read_only(self):
        X, _ = _scaled_blobs(2.0)
        k_t, curv = _KernelRows(X)[0]
        assert np.array_equal(k_t, X @ X[0])
        assert not k_t.flags.writeable and not curv.flags.writeable

    def test_duplicated_rows_with_opposite_labels(self):
        # two equal rows have curvature 0, clamped to 1e-12, so a step
        # between them is clipped to the room left in their alphas
        X, labels = _scaled_blobs(2.0)
        X = np.vstack([X, X[:5]])
        labels = np.concatenate([labels, ["calm"] * 5])  # X[:5] are angry
        clamped = 0
        for label in CLASSES:
            y = np.where(labels == label, 1.0, -1.0)
            rows = _PairLog(X)
            _solve_both(rows, X, y, 1.0)
            clamped += sum(rows[i][1][j] == 1e-12 for i, j in rows.pairs())
        assert clamped > 0

    def test_every_alpha_at_a_bound(self):
        # angry against calm, 30 a side: at C = 1e-3 every margin is below
        # 1, so every alpha ends at C and the bias is the midpoint (m + M) / 2
        X, labels = _scaled_blobs(6.0)
        keep = labels != "panic"
        y = np.where(labels[keep] == "angry", 1.0, -1.0)
        alphas, _, _, _ = _solve_both(_KernelRows(X[keep]), X[keep], y, 1e-3)
        assert np.all(alphas == 1e-3)

    def test_head_with_one_positive_sample(self):
        X, _ = _scaled_blobs(2.0)
        y = np.full(len(X), -1.0)
        y[7] = 1.0
        alphas, _, _, _ = _solve_both(_KernelRows(X), X, y, 1.0)
        assert alphas[7] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_small_problems(self, data):
        n = data.draw(st.integers(6, 24))
        X = data.draw(arrays(np.float64, (n, data.draw(st.integers(2, 5))),
                             elements=st.floats(-10.0, 10.0)))
        y = data.draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0]))
                      .filter(lambda y: 1.0 in y and -1.0 in y))
        _solve_both(_KernelRows(X), X, y, data.draw(st.sampled_from([0.01, 1.0, 100.0])))


class _PairLog(_KernelRows):
    """Kernel rows that log the indices the solver reads: row i, then row j,
    once per iteration."""

    def __init__(self, X):
        super().__init__(X)
        self.log = []

    def __getitem__(self, t):
        self.log.append(t)
        return super().__getitem__(t)

    def pairs(self):
        return list(zip(self.log[0::2], self.log[1::2]))


def _solve_both(rows, X, y, C):
    """The solver over ``rows`` and the uncached oracle on one head: equal
    bit for bit. Returns the solver's (alphas, b, iterations, violation)."""
    got = _smo_binary(rows, y, C, 1e-3, 10_000_000)
    want = oracles.smo_direct(X, y, C, 1e-3, 10_000_000)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    return got


def _platt_objective(ab, f, t):
    """Platt's negative log-likelihood under _fit_platt's smoothed targets,
    written with logaddexp instead of its two branches."""
    prior1 = t.sum()
    prior0 = len(t) - prior1
    ty = np.where(t > 0, (prior1 + 1.0) / (prior1 + 2.0), 1.0 / (prior0 + 2.0))
    z = ab[0] * f + ab[1]
    return float(np.sum(np.logaddexp(0.0, z) - (1.0 - ty) * z))


def _runs_of_line(fn, marker, *args):
    """``fn(*args)``, and how many times the line of ``fn`` holding
    ``marker`` ran."""
    lines, first = inspect.getsourcelines(fn)
    target = first + next(i for i, line in enumerate(lines) if marker in line)
    runs = 0

    def trace(frame, event, arg):
        nonlocal runs
        if frame.f_code is not fn.__code__:
            return None
        runs += event == "line" and frame.f_lineno == target
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, runs


class TestPlatt:
    # decision values in the hundreds make Newton's full step overshoot, so
    # the line search halves it: the second input's search accepts a halved
    # step, and the other two halve theirs below min_step and stop there
    @pytest.mark.parametrize("decision, target", [
        ([-165.618, -396.812, 310.925, 404.655, 227.757, -802.26, 821.935, -59.114, -600.639],
         [1, 0, 0, 1, 1, 0, 1, 0, 1]),
        ([170.158, -412.192, 258.497, -609.659, -221.993, 14.522, -500.861, 260.804, -7.416,
          -414.429], [0, 0, 1, 1, 1, 0, 1, 1, 1, 0]),
        ([216.128, -460.888, -620.475, -829.703, 870.382, 271.154, 647.295, -149.615, 449.007],
         [1, 1, 0, 0, 1, 0, 0, 0, 1]),
    ])
    def test_line_search_reaches_the_minimum(self, decision, target):
        from scipy.optimize import minimize

        f, t = np.array(decision), np.array(target, dtype=float)
        (a, b), halvings = _runs_of_line(classifier._fit_platt, "step /= 2.0", f, t)
        assert halvings > 0
        best = minimize(_platt_objective, [0.0, 0.0], args=(f, t), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20_000})
        assert best.success
        assert _platt_objective((a, b), f, t) == pytest.approx(best.fun, rel=1e-9)


class TestPredict:
    def _flat_model(self):
        """Zero weights and neutral Platt heads: every class ties at 0.5."""
        n = len(DIMENSIONS)
        scaler = CorpusStats(mean=np.zeros(n), std=np.ones(n), zero_variance=())
        return SvmModel(weights=np.zeros((3, n)), biases=np.zeros(3),
                        platt_a=np.zeros(3), platt_b=np.zeros(3),
                        scaler=scaler, meta={})

    def test_tie_breaks_by_fixed_class_order(self):
        evidence = predict(self._flat_model(), np.zeros(len(DIMENSIONS)))
        assert evidence.label == CLASSES[0] == "angry"
        assert np.allclose(evidence.per_class_probs, 1.0 / 3.0)

    @pytest.mark.parametrize("platt_b", [1000.0, -1000.0])
    def test_saturated_sigmoids_warn_nothing(self, platt_b):
        # np.where computes the branch it drops too, where exp overflows; a
        # warning there would be one more stderr line of a CLI run
        model = replace(self._flat_model(), platt_b=np.full(3, platt_b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evidence = predict(model, np.zeros(len(DIMENSIONS)))
        assert np.allclose(evidence.per_class_probs, 1.0 / 3.0)

    def test_margins_reported(self):
        vectors, labels = _blobs(seed=3)
        model = train(vectors, labels)
        evidence = predict(model, vectors[0])
        assert evidence.margins.shape == (3,)


_D = len(DIMENSIONS)
_VALUES = st.floats(-1e3, 1e3)


@st.composite
def _models(draw):
    """A random model; "tied" gives every head the same parameters, so all
    classes tie, and "saturated" drives every sigmoid to 0."""
    kind = draw(st.sampled_from(["random", "tied", "saturated"]))
    weights = draw(arrays(np.float64, (3, _D), elements=_VALUES))
    biases = draw(arrays(np.float64, 3, elements=_VALUES))
    platt_a = draw(arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    platt_b = draw(arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    if kind == "tied":
        for param in (weights, biases, platt_a, platt_b):
            param[:] = param[0]
    elif kind == "saturated":
        platt_a[:] = 0.0
        platt_b[:] = 1000.0
    scaler = CorpusStats(mean=draw(arrays(np.float64, _D, elements=_VALUES)),
                         std=draw(arrays(np.float64, _D, elements=st.floats(1e-3, 1e3))),
                         zero_variance=())
    return SvmModel(weights=weights, biases=biases, platt_a=platt_a,
                    platt_b=platt_b, scaler=scaler, meta={})


class TestBatchedPredict:
    """predict over a matrix equals the one-vector path row by row, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_models(), arrays(np.float64, st.tuples(st.integers(1, 20), st.just(_D)),
                             elements=_VALUES))
    def test_matches_per_vector_oracle(self, model, X):
        with np.errstate(over="ignore", invalid="ignore"):  # the branch np.where drops
            batch = predict(model, X)
            rows = [oracles.predict_direct(model, x) for x in X]
        assert len(batch) == len(rows)
        for got, want in zip(batch, rows):
            assert np.array_equal(got.margins, want.margins)
            assert np.array_equal(got.per_class_probs, want.per_class_probs)
            assert got.confidence == want.confidence
            assert got.label == want.label

    def test_zero_rows(self):
        vectors, labels = _blobs()
        model = train(vectors, labels)
        assert predict(model, []) == []
        assert predict(model, np.empty((0, _D))) == []


class TestSerialization:
    def test_model_json_roundtrip_exact(self, tmp_path):
        vectors, labels = _blobs(seed=4)
        model = train(vectors, labels)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = SvmModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)
        assert np.array_equal(loaded.platt_a, model.platt_a)
        assert np.array_equal(loaded.platt_b, model.platt_b)
        assert np.array_equal(loaded.scaler.mean, model.scaler.mean)
        assert np.array_equal(loaded.scaler.std, model.scaler.std)
        assert loaded.meta == model.meta

    def test_unknown_schema_rejected(self):
        with pytest.raises(DataError, match="^model: expected schema 'serhybrid-svm-v1', "
                                            "got 'something-else'$"):
            SvmModel.from_json('{"schema": "something-else"}')

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("platt_b"), "model lacks platt_b"),
        (lambda doc: doc["scaler"].pop("std"), "model scaler std must be numbers"),
        (lambda doc: doc["weights"].pop(), r"model weights has shape \(2, 37\)"),
        (lambda doc: doc["biases"].append("0.0"), r"model biases has shape \(4,\)"),
        (lambda doc: doc["weights"][0].__setitem__(0, "nan"),
         "model weights has non-finite values"),
        (lambda doc: doc["scaler"]["mean"].__setitem__(0, "abc"),
         "model scaler mean must be numbers"),
        (lambda doc: doc["scaler"]["std"].__setitem__(0, "0.0"),
         "model scaler std must be positive"),
        (lambda doc: doc.__setitem__("classes", ["calm", "angry", "panic"]),
         r"model classes \['calm', 'angry', 'panic'\]"),
        (lambda doc: doc["weights"][0].__setitem__(0, 10 ** 400), "model weights must be numbers"),
        (lambda doc: doc["scaler"].__setitem__("zero_variance", [["pitch_std"]]),
         "model scaler zero_variance must list feature dimensions"),
    ], ids=[f"<lambda>{i}" for i in range(10)])
    def test_malformed_model_rejected(self, edit, message):
        vectors, labels = _blobs(seed=4)
        doc = json.loads(train(vectors, labels).to_json())
        edit(doc)
        with pytest.raises(DataError, match=message):
            SvmModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["scaler", "meta"])
    def test_scaler_and_meta_must_be_objects(self, key):
        vectors, labels = _blobs(seed=4)
        doc = json.loads(train(vectors, labels).to_json())
        doc[key] = list(doc[key].values())
        with pytest.raises(DataError, match="^model scaler and meta must be JSON objects$"):
            SvmModel.from_json(json.dumps(doc))

    def test_non_json_model_rejected(self):
        with pytest.raises(DataError, match="model: invalid JSON"):
            SvmModel.from_json("not json")

    def test_evidence_roundtrip_exact(self):
        evidence = MlEvidence(label="panic", confidence=0.875,
                              per_class_probs=np.array([0.0625, 0.0625, 0.875]),
                              margins=np.array([-1.5, -2.0, 1.25]))
        loaded = MlEvidence.from_dict(evidence.to_dict())
        assert loaded.label == evidence.label
        assert loaded.confidence == evidence.confidence
        assert np.array_equal(loaded.per_class_probs, evidence.per_class_probs)
        assert np.array_equal(loaded.margins, evidence.margins)
