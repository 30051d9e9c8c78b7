"""Error mining, rule proposals, and refinement application."""

import json

import numpy as np
import pytest

import oracles
from serhybrid.errors import ConfigError, DataError
from serhybrid.features import DIM_INDEX, DIMENSIONS, CorpusStats
from serhybrid.labels import CLASSES
from serhybrid.reasoning import default_ruleset
from serhybrid.refine import (RuleProposal, _cohens_d, apply_refinement,
                              mine_error_patterns, propose_rules,
                              read_proposals, write_proposals)


def _stats(X):
    return CorpusStats.from_matrix(np.asarray(X))


# random (d, n) group shapes: single samples and zero-variance rows included
_GROUP_SIZES = (1, 2, 3, 7, 30, 300)


def _random_groups(rng, n_dims=len(DIMENSIONS)):
    for na in _GROUP_SIZES:
        for nb in _GROUP_SIZES:
            a = rng.normal(loc=rng.normal(), scale=rng.uniform(0.1, 50.0), size=(n_dims, na))
            b = rng.normal(scale=rng.uniform(0.1, 50.0), size=(n_dims, nb))
            a[:3] = 2.5  # constant rows
            b[1:4] = -1.0
            yield a, b


class TestCohensD:
    def test_hand_value(self):
        # means 2 and 5, both variances 1 -> d = -3
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[4.0, 5.0, 6.0]])
        assert abs(_cohens_d(a, b)[0] - (-3.0)) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(len(DIMENSIONS), rng.integers(2, 30)))
            b = rng.normal(loc=1.0, size=(len(DIMENSIONS), rng.integers(2, 30)))
            d = _cohens_d(a, b)
            for row, (a_row, b_row) in enumerate(zip(a, b)):
                assert abs(d[row] - oracles.cohens_d_direct(a_row, b_row)) < 1e-10

    def test_zero_pooled_variance(self):
        assert _cohens_d(np.ones((1, 2)), np.ones((1, 2))).tolist() == [0.0]
        d = _cohens_d(np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert d[0] == 0.0 and d[1] != 0.0

    def test_single_samples_give_zero(self):
        assert _cohens_d(np.ones((3, 1)), np.zeros((3, 1))).tolist() == [0.0] * 3

    def test_bit_equal_to_one_dimension_at_a_time(self):
        """Each row reduces as the 1-D group of that dimension would, so
        proposals written from the matrix form are byte-identical."""
        rng = np.random.default_rng(5)
        for a, b in _random_groups(rng):
            d = _cohens_d(a, b)
            expected = [oracles.cohens_d_1d(a_row, b_row) for a_row, b_row in zip(a, b)]
            assert d.tolist() == expected


def _planted(rng, n_err=8, n_ok=12):
    """panic->angry errors that differ from correct panic only in pitch_std:
    (gold, predicted, X)."""
    X = np.zeros((n_err + n_ok, len(DIMENSIONS)))
    X[:, DIM_INDEX["pitch_std"]] = np.r_[5.0 + rng.normal(scale=0.1, size=n_err),
                                         30.0 + rng.normal(scale=0.1, size=n_ok)]
    X[:, DIM_INDEX["energy_mean"]] = 1.0 + rng.normal(scale=0.5, size=n_err + n_ok)
    gold = ["panic"] * (n_err + n_ok)
    predicted = ["angry"] * n_err + ["panic"] * n_ok
    return gold, predicted, X


class TestMining:
    def test_recovers_planted_dimension(self):
        rng = np.random.default_rng(17)
        gold, predicted, X = _planted(rng)
        patterns = mine_error_patterns(gold, predicted, X, _stats(X))
        assert len(patterns) == 1
        pattern = patterns[0]
        assert (pattern.gold, pattern.predicted) == ("panic", "angry")
        assert pattern.support == 8
        assert pattern.top_deltas[0].dimension == "pitch_std"
        assert pattern.top_deltas[0].effect_size < 0
        assert pattern.top_deltas[0].direction == -1

    def test_min_support_filters(self):
        rng = np.random.default_rng(17)
        gold, predicted, X = _planted(rng, n_err=4)
        stats = _stats(X)
        assert mine_error_patterns(gold, predicted, X, stats, min_support=5) == []
        assert len(mine_error_patterns(gold, predicted, X, stats, min_support=4)) == 1

    @pytest.mark.parametrize("min_support", [0, -3])
    def test_no_pattern_without_support(self, min_support):
        """A pair with no errors gives no pattern, whatever min_support is:
        0 and below act as 1."""
        rng = np.random.default_rng(19)
        gold, predicted, X = _planted(rng, n_err=1)
        gold += ["calm"] * 3
        predicted += ["calm"] * 3
        X = np.vstack([X, rng.normal(size=(3, len(DIMENSIONS)))])
        stats = _stats(X)
        patterns = mine_error_patterns(gold, predicted, X, stats, min_support=min_support)
        assert [(p.gold, p.predicted, p.support) for p in patterns] == [("panic", "angry", 1)]
        assert patterns == mine_error_patterns(gold, predicted, X, stats, min_support=1)

    def test_no_correct_gold_group_skipped(self):
        rng = np.random.default_rng(17)
        gold, predicted, X = _planted(rng, n_ok=0)
        assert mine_error_patterns(gold, predicted, X, _stats(X)) == []

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        gold, predicted, X = _planted(rng)
        stats = _stats(X)
        first = mine_error_patterns(gold, predicted, X, stats)
        second = mine_error_patterns(gold, predicted, X, stats)
        assert first == second

    def test_no_samples_no_patterns(self):
        rng = np.random.default_rng(23)
        X = _planted(rng)[2]
        assert mine_error_patterns([], [], [], _stats(X)) == []

    def test_misaligned_inputs_rejected(self):
        rng = np.random.default_rng(23)
        gold, predicted, X = _planted(rng)
        n = len(gold)
        with pytest.raises(DataError, match=f"{n} gold labels, {n - 1} predictions and {n} "):
            mine_error_patterns(gold, predicted[1:], X, _stats(X))
        with pytest.raises(DataError, match=f"{n} predictions and {n - 1} feature rows"):
            mine_error_patterns(gold, predicted, X[1:], _stats(X))

    def test_deltas_equal_the_per_dimension_computation(self):
        """Every reported delta is the 1-D Cohen's d and median z of its
        dimension over the groups in sample order, bit for bit."""
        rng = np.random.default_rng(41)
        n = 400
        gold = [CLASSES[i] for i in rng.integers(0, 3, size=n)]
        predicted = [g if rng.random() < 0.6 else CLASSES[i]
                     for g, i in zip(gold, rng.integers(0, 3, size=n))]
        X = rng.normal(scale=rng.uniform(0.1, 100.0, size=len(DIMENSIONS)),
                       size=(n, len(DIMENSIONS)))
        stats = _stats(X)
        patterns = mine_error_patterns(gold, predicted, X, stats, min_support=1)
        assert len(patterns) == 6
        for pattern in patterns:
            err = [i for i in range(n)
                   if (gold[i], predicted[i]) == (pattern.gold, pattern.predicted)]
            ok = [i for i in range(n) if gold[i] == predicted[i] == pattern.gold]
            assert pattern.support == len(err)
            for delta in pattern.top_deltas:
                k = DIM_INDEX[delta.dimension]
                assert delta.effect_size == oracles.cohens_d_1d(X[err, k], X[ok, k])
                assert delta.error_median_z == float(np.median(stats.transform(X[err])[:, k]))


class TestProposals:
    def _pattern(self):
        gold, predicted, X = _planted(np.random.default_rng(29))
        return mine_error_patterns(gold, predicted, X, _stats(X))[0]

    def test_direction_and_strength(self):
        pattern = self._pattern()
        proposals = propose_rules([pattern], base_version=1)
        assert len(proposals) == 1
        rule = proposals[0].candidate
        assert rule.implied_label == "panic"
        assert rule.origin == "refined"
        condition = rule.conditions[0]
        assert condition.dimension == "pitch_std"
        # errors sit below the correct group (d < 0) -> fire at or above
        assert condition.comparator == ">="
        assert condition.threshold_z == pattern.top_deltas[0].error_median_z
        expected = min(1.0, abs(pattern.top_deltas[0].effect_size) / 2.0)
        assert rule.strength == expected

    def test_positive_effect_flips_comparator(self):
        pattern = self._pattern()
        flipped = pattern.top_deltas[0].__class__(
            dimension="energy_mean", effect_size=1.2, direction=1,
            error_median_z=0.7)
        pattern = pattern.__class__(gold=pattern.gold, predicted=pattern.predicted,
                                    support=pattern.support, top_deltas=(flipped,))
        rule = propose_rules([pattern], 1)[0].candidate
        assert rule.conditions[0].comparator == "<="

    def test_zero_effect_suppressed(self):
        pattern = self._pattern()
        zero = pattern.top_deltas[0].__class__(
            dimension="pitch_std", effect_size=0.0, direction=0,
            error_median_z=0.0)
        pattern = pattern.__class__(gold=pattern.gold, predicted=pattern.predicted,
                                    support=pattern.support, top_deltas=(zero,))
        assert propose_rules([pattern], 1) == []

    def test_roundtrip_file(self, tmp_path):
        proposals = propose_rules([self._pattern()], base_version=3)
        path = tmp_path / "proposals.json"
        write_proposals(path, proposals)
        loaded = read_proposals(path)
        assert loaded == proposals

    @pytest.mark.parametrize("field, value, message", [
        ("base_version", True, "base_version must be an integer, got True"),
        ("base_version", 1.9, "base_version must be an integer, got 1.9"),
        ("base_version", "1", "base_version must be an integer, got '1'"),
        ("gold", "happy", "pattern: gold must be one of angry, calm, panic, got 'happy'"),
        ("predicted", None, "pattern: predicted must be a string, got None"),
        ("support", -4, "pattern: support must be at least 0, got -4"),
        ("support", 2.0, "pattern: support must be an integer, got 2.0"),
        ("dimension", "no_such_dim", f"pattern: top_deltas[0]: dimension must be one of "
                                     f"{', '.join(DIMENSIONS)}, got 'no_such_dim'"),
        ("effect_size", "nan",
         "pattern: top_deltas[0]: effect_size must be a finite number, got 'nan'"),
        ("effect_size", float("nan"),
         "pattern: top_deltas[0]: effect_size must be a finite number, got nan"),
        ("error_median_z", float("inf"),
         "pattern: top_deltas[0]: error_median_z must be a finite number, got inf"),
        ("direction", 0.5, "pattern: top_deltas[0]: direction must be an integer, got 0.5"),
        ("strength", True, "candidate: strength must be a finite number, got True"),
        ("threshold_z", True,
         "candidate: conditions[0]: threshold_z must be a finite number, got True"),
        ("threshold_z", "1.5",
         "candidate: conditions[0]: threshold_z must be a finite number, got '1.5'"),
        ("statement", ["x"], "candidate: statement must be a string, got ['x']"),
        ("id", 5, "candidate: id must be a string, got 5"),
    ], ids=["version-true", "version-float", "version-string", "gold", "predicted",
            "negative-support", "float-support", "dimension", "effect-string",
            "effect-nan", "median-inf", "direction-float", "strength-true",
            "threshold-true", "threshold-string", "statement-list", "id-number"])
    def test_pattern_and_version_validated_as_rule_files_are(self, tmp_path, field, value,
                                                             message):
        # each of these once loaded, the versions as version 1, and the
        # candidate's boolean, numeric string, list and number through
        # float() and str()
        path = tmp_path / "proposals.json"
        write_proposals(path, propose_rules([self._pattern()] * 2, base_version=1))
        doc = json.loads(path.read_text())
        proposal = doc["proposals"][1]
        pattern, candidate = proposal["pattern"], proposal["candidate"]
        owner = {"base_version": proposal, "gold": pattern, "predicted": pattern,
                 "support": pattern, "strength": candidate, "statement": candidate,
                 "id": candidate, "threshold_z": candidate["conditions"][0]}
        owner.get(field, pattern["top_deltas"][0])[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            read_proposals(path)
        assert str(err.value) == f"{path}: proposals[1]: {message}"


class TestApplyRefinement:
    def _accepted(self, base_version=1):
        gold, predicted, X = _planted(np.random.default_rng(31))
        pattern = mine_error_patterns(gold, predicted, X, _stats(X))[0]
        proposal = propose_rules([pattern], base_version)[0]
        return RuleProposal(proposal.candidate, proposal.pattern, "accepted",
                            base_version)

    def test_version_bump_and_append(self):
        rules = default_ruleset()
        accepted = self._accepted(rules.version)
        new_rules = apply_refinement(rules, [accepted])
        assert new_rules.version == rules.version + 1
        assert len(new_rules.rules) == len(rules.rules) + 1
        assert new_rules.rules[-1] == accepted.candidate
        assert new_rules.confusion_notes == rules.confusion_notes

    def test_stale_base_version_rejected(self):
        rules = default_ruleset()
        with pytest.raises(ConfigError, match="targets version 99, current is 1"):
            apply_refinement(rules, [self._accepted(base_version=99)])

    def test_duplicate_rule_id_rejected(self):
        rules = default_ruleset()
        accepted = self._accepted(rules.version)
        bumped = apply_refinement(rules, [accepted])
        clash = RuleProposal(accepted.candidate, accepted.pattern, "accepted",
                             bumped.version)
        with pytest.raises(ConfigError, match=f"{accepted.candidate.id!r} already present"):
            apply_refinement(bumped, [clash])

    def test_candidate_accepted_twice_rejected(self):
        # the rule file it would write repeats a rule id, which load_rules rejects
        rules = default_ruleset()
        accepted = self._accepted(rules.version)
        with pytest.raises(ConfigError, match=f"{accepted.candidate.id!r} already present"):
            apply_refinement(rules, [accepted, accepted])

    def test_empty_acceptance_still_bumps(self):
        rules = default_ruleset()
        new_rules = apply_refinement(rules, [])
        assert new_rules.version == rules.version + 1
        assert new_rules.rules == rules.rules
