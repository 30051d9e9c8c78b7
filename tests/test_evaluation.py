"""Metrics and agreement statistics against hand-computed values."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from serhybrid.errors import DataError
from serhybrid.evaluation import (cohens_kappa, compare_report,
                                  confusion_counts, fleiss_kappa, metrics)
from serhybrid.labels import CLASSES


class TestFleissKappa:
    def test_hand_computed_four_items(self):
        # P_bar = 7/12, p_e = 31/72 -> kappa = 11/41
        table = [[3, 0, 0], [0, 3, 0], [1, 1, 1], [2, 1, 0]]
        assert abs(fleiss_kappa(table) - float(Fraction(11, 41))) < 1e-12

    def test_perfect_agreement_two_categories(self):
        assert fleiss_kappa([[2, 0], [0, 2], [2, 0]]) == 1.0

    def test_single_category_is_undefined(self):
        assert fleiss_kappa([[3, 0, 0], [3, 0, 0]]) is None

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_raters = int(rng.integers(2, 6))
            table = np.zeros((20, 3), dtype=np.int64)
            for i in range(20):
                for r in rng.integers(0, 3, size=n_raters):
                    table[i, r] += 1
            assert abs(fleiss_kappa(table)
                       - oracles.fleiss_kappa_direct(table.tolist())) < 1e-10

    @pytest.mark.parametrize("table, message", [
        ([[1, 2]], "2-D with >= 2 items"),                   # one item
        ([[2, 0], [1, 0]], "same number of raters"),         # ragged rater counts
        ([[1, 0], [0, 1]], "same number of raters"),         # single rater
        ([[-1, 3], [2, 0]], "must be non-negative"),         # negative count
        ([[1.5, 0.5], [1.0, 1.0]], "must be integers"),      # fractional counts
    ], ids=[f"table{i}" for i in range(5)])
    def test_invalid_tables_rejected(self, table, message):
        with pytest.raises(DataError, match=message):
            fleiss_kappa(table)

    def test_integral_floats_accepted(self):
        assert fleiss_kappa([[2.0, 1.0], [1.0, 2.0]]) is not None


class TestCohensKappa:
    def test_hand_computed(self):
        a = ["calm", "calm", "angry", "angry", "panic", "calm"]
        b = ["calm", "angry", "angry", "angry", "panic", "calm"]
        assert abs(cohens_kappa(a, b) - float(Fraction(17, 23))) < 1e-12

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            a = [CLASSES[i] for i in rng.integers(0, 3, size=n)]
            b = [CLASSES[i] for i in rng.integers(0, 3, size=n)]
            reference = oracles.cohens_kappa_direct(a, b)
            ours = cohens_kappa(a, b)
            if reference is None:
                assert ours is None
            else:
                assert abs(ours - reference) < 1e-10

    def test_identical_constant_sequences_undefined(self):
        assert cohens_kappa(["calm"] * 5, ["calm"] * 5) is None

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="label sequences differ in length: 1 vs 2"):
            cohens_kappa(["calm"], ["calm", "angry"])
        with pytest.raises(DataError, match="need at least 2 items"):
            cohens_kappa(["calm"], ["calm"])


class TestMetrics:
    def test_symmetric_two_thirds_fixture(self):
        gold = ["angry"] * 3 + ["calm"] * 3 + ["panic"] * 3
        preds = ["angry", "angry", "calm", "calm", "calm", "panic",
                 "panic", "panic", "angry"]
        report = metrics(preds, gold)
        assert abs(report.accuracy - 2 / 3) < 1e-12
        for m in report.per_class.values():
            assert abs(m.precision - 2 / 3) < 1e-12
            assert abs(m.recall - 2 / 3) < 1e-12
            assert abs(m.f1 - 2 / 3) < 1e-12
        assert abs(report.macro_f1 - 2 / 3) < 1e-12
        assert report.n == 9

    def test_absent_class_flags_zero_division(self):
        report = metrics(["calm", "calm"], ["calm", "angry"])
        assert report.per_class["panic"].zero_division_flag
        assert report.per_class["panic"].precision == 0.0
        assert report.per_class["panic"].recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="metrics need aligned labels: 1 predicted, 2 gold"):
            metrics(["calm"], ["calm", "angry"])

    def test_empty_input(self):
        with pytest.raises(DataError, match="metrics need at least one sample"):
            metrics([], [])

    def test_confusion_counts_layout(self):
        cm = confusion_counts(["calm", "panic"], ["angry", "panic"])
        assert cm[CLASSES.index("angry"), CLASSES.index("calm")] == 1
        assert cm[CLASSES.index("panic"), CLASSES.index("panic")] == 1
        assert cm.sum() == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES)),
                    min_size=1, max_size=60))
    def test_macro_f1_is_mean_of_per_class_f1(self, pairs):
        report = metrics([p for p, _ in pairs], [g for _, g in pairs])
        mean_f1 = sum(m.f1 for m in report.per_class.values()) / len(CLASSES)
        assert abs(report.macro_f1 - mean_f1) < 1e-12
        assert 0.0 <= report.accuracy <= 1.0



class TestConfusionMatrix:
    """The one confusion matrix of a run: the counts metrics builds, kept
    on its report, and their text table."""

    def test_counts_and_render(self):
        report = metrics(["calm", "calm", "angry"], ["calm", "angry", "angry"])
        cm = report.confusion
        assert cm.sum() == 3
        assert cm[1, 1] == 1          # calm predicted calm
        assert cm[0, 1] == 1          # angry predicted calm
        assert cm[0, 0] == 1          # angry predicted angry
        rendered = report.render_confusion()
        assert rendered == ("gold \\ pred  angry   calm  panic\n"
                            "angry        1      1      0\n"
                            "calm         0      1      0\n"
                            "panic        0      0      0")
        assert "confusion" not in report.to_dict()

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="metrics need aligned labels: 2 predicted, 1 gold"):
            metrics(["calm", "calm"], ["calm"])


class TestCompareReport:
    def _report(self, labels):
        return metrics(labels, labels)

    def test_row_order_and_formats(self):
        # rows keep the input order; cmd_compare passes v1-v5 in order
        perfect = self._report(["calm", "angry", "panic"])
        text, doc = compare_report([("v4_hybrid", perfect), ("v1_basic", perfect)])
        lines = text.splitlines()
        assert lines[2].startswith("v4_hybrid")
        assert lines[3].startswith("v1_basic")
        assert "100.00" in lines[2]
        assert [r["version"] for r in doc["rows"]] == ["v4_hybrid", "v1_basic"]
        assert doc["rows"][0]["f1"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="compare_report needs at least one run"):
            compare_report([])


# aligned label lists, each side drawn from its own subset of the classes,
# so a class can be missing from one side or both
_present = st.lists(st.sampled_from(CLASSES), min_size=1, max_size=3, unique=True)
_aligned = st.tuples(_present, _present).flatmap(
    lambda sides: st.lists(st.tuples(*map(st.sampled_from, sides)), min_size=1, max_size=60)
).map(lambda pairs: ([x for x, _ in pairs], [y for _, y in pairs]))


class TestLabelCountsAgainstEarlierForms:
    """metrics and cohens_kappa count aligned lists with confusion_counts;
    they equal, under ==, the id-keyed metrics and the label-indexed
    kappa table they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_aligned)
    def test_metrics_equal_id_keyed_metrics(self, labels):
        preds, gold = labels
        ids = [f"s{i}" for i in range(len(preds))]
        ours = metrics(preds, gold)
        reference = oracles.metrics_by_id(zip(ids, preds), zip(ids, gold))
        assert ours == reference  # every field but the confusion counts
        assert np.array_equal(ours.confusion, reference.confusion)

    @settings(max_examples=200, deadline=None)
    @given(_aligned.filter(lambda labels: len(labels[0]) >= 2))
    def test_cohens_kappa_equals_label_indexed_table(self, labels):
        assert cohens_kappa(*labels) == oracles.cohens_kappa_by_index(*labels)
