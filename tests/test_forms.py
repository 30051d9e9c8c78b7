"""Each written file form against its member-by-member reference in oracles:
rule files, proposals, prediction lines, metrics and blended recipes must
come out byte for byte as the references write them."""

import itertools
import json
from dataclasses import replace

import pytest

import oracles
from conftest import planted_recipe, train_on
from mockllm import RulesLiteralClient, TimeoutClient
from serhybrid.corpus import DEFAULT_CLASS_RECIPES
from serhybrid.evaluation import metrics
from serhybrid.hybrid import (PREDICTIONS_SCHEMA, SOURCES, run_pipeline,
                              run_text_baseline, write_predictions)
from serhybrid.reasoning import PromptVersion, default_ruleset
from serhybrid.refine import (PROPOSALS_SCHEMA, apply_refinement,
                              mine_error_patterns, propose_rules,
                              write_proposals)


@pytest.fixture(scope="module")
def planted_proposals(planted_corpus):
    """Every proposal mined from a rules-literal v2 run on the planted
    corpus, each once pending and once accepted."""
    bundle = planted_corpus
    rules = default_ruleset()
    predictions, _ = run_pipeline(bundle.entries, bundle.features, train_on(bundle),
                                  rules, bundle.stats, RulesLiteralClient(),
                                  PromptVersion.v2_rules)
    patterns = mine_error_patterns([bundle.gold[p.sample_id] for p in predictions],
                                   [p.label for p in predictions],
                                   [bundle.features[p.sample_id] for p in predictions],
                                   bundle.stats, min_support=2)
    pending = propose_rules(patterns, rules.version)
    assert pending
    accepted = [replace(p, status="accepted") for p in pending]
    return rules, pending, accepted


def test_default_rules_text():
    rules = default_ruleset()
    assert rules.to_json() == oracles.ruleset_to_json_direct(rules)


def test_refined_rules_text(planted_proposals):
    rules, _, accepted = planted_proposals
    refined = apply_refinement(rules, accepted)
    assert len(refined.rules) > len(rules.rules)
    assert refined.to_json() == oracles.ruleset_to_json_direct(refined)


def test_proposals_text(planted_proposals, tmp_path):
    _, pending, accepted = planted_proposals
    path = tmp_path / "proposals.json"
    write_proposals(path, pending + accepted)
    direct = json.dumps({"schema": PROPOSALS_SCHEMA,
                         "proposals": [oracles.proposal_to_dict_direct(p)
                                       for p in pending + accepted]}, indent=2)
    assert path.read_text(encoding="utf-8") == direct


def test_prediction_line_of_each_source(separable_corpus, separable_model, tmp_path):
    bundle = separable_corpus
    first = bundle.entries[:1]

    def one(client, version, tau=0.7):
        predictions, _ = run_pipeline(first, bundle.features, separable_model,
                                      default_ruleset(), bundle.stats, client,
                                      version, tau=tau)
        return predictions[0]

    baseline, _ = run_text_baseline(first, {first[0].sample_id: "words"}, TimeoutClient())
    predictions = [one(RulesLiteralClient(), PromptVersion.v4_hybrid, tau=0.0),
                   one(RulesLiteralClient(), PromptVersion.v4_hybrid, tau=1.01),
                   one(TimeoutClient(), PromptVersion.v2_rules),
                   baseline[0]]
    assert tuple(p.source for p in predictions) == SOURCES
    path = tmp_path / "predictions.jsonl"
    write_predictions(path, predictions)
    direct = "".join(json.dumps(oracles.prediction_to_dict_direct(p, PREDICTIONS_SCHEMA)) + "\n"
                     for p in predictions)
    assert path.read_text(encoding="utf-8") == direct


def test_metrics_with_a_zero_division_class():
    # panic is neither predicted nor gold, angry is gold but never predicted
    report = metrics(["calm", "calm", "calm"], ["calm", "angry", "calm"])
    assert any(m.zero_division_flag for m in report.per_class.values())
    # every writer of metrics sorts keys
    assert (json.dumps(report.to_dict(), indent=2, sort_keys=True)
            == json.dumps(oracles.metrics_to_dict_direct(report), indent=2, sort_keys=True))


@pytest.mark.parametrize("weight", [0.0, 0.25, 0.5, 1.0])
def test_blend_mixes_the_named_parameters(weight):
    planted = planted_recipe()
    recipes = [*DEFAULT_CLASS_RECIPES.values(), *planted.classes.values(),
               *planted.variants.values()]
    for a, b in itertools.permutations(recipes, 2):
        assert repr(a.blend(b, weight)) == repr(oracles.blend_direct(a, b, weight))
