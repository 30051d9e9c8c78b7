"""Confidence routing, fallback chain, and end-to-end inference."""

import numpy as np
import pytest

from mockllm import OracleClient, RulesLiteralClient, ScriptedClient, TimeoutClient
from serhybrid.classifier import MlEvidence, predict
from serhybrid.errors import DataError
from serhybrid.hybrid import (DEFAULT_TAU, Prediction, _fallback,
                              read_predictions, run_pipeline,
                              run_text_baseline, write_predictions)
from serhybrid.reasoning import PromptVersion, default_ruleset


def _evidence(confidence, label="angry"):
    probs = np.full(3, (1.0 - confidence) / 2.0)
    probs[0] = confidence
    return MlEvidence(label=label, confidence=confidence,
                      per_class_probs=probs, margins=np.zeros(3))


def _one(bundle, model, client, version, tau=DEFAULT_TAU):
    """run_pipeline on the bundle's first entry; returns its Prediction."""
    predictions, _ = run_pipeline(bundle.entries[:1], bundle.features, model,
                                  default_ruleset(), bundle.stats, client,
                                  version, tau=tau)
    return predictions[0]


class TestRoute:
    """v4_hybrid answers directly when confidence >= tau."""

    def _confidence(self, bundle, model):
        return predict(model, bundle.features[bundle.entries[0].sample_id]).confidence

    def test_boundary_is_direct(self, separable_corpus, separable_model):
        tau = self._confidence(separable_corpus, separable_model)
        pred = _one(separable_corpus, separable_model, RulesLiteralClient(),
                    PromptVersion.v4_hybrid, tau=tau)
        assert pred.source == "ml_direct"

    def test_below_threshold_reasons(self, separable_corpus, separable_model):
        tau = np.nextafter(self._confidence(separable_corpus, separable_model), 2.0)
        pred = _one(separable_corpus, separable_model, RulesLiteralClient(),
                    PromptVersion.v4_hybrid, tau=tau)
        assert pred.source == "llm_reasoned"

    def test_tau_above_one_forces_reasoning(self, separable_corpus,
                                            separable_model):
        pred = _one(separable_corpus, separable_model, RulesLiteralClient(),
                    PromptVersion.v4_hybrid, tau=1.01)
        assert pred.source == "llm_reasoned"

    def test_tau_zero_forces_direct(self, separable_corpus, separable_model):
        pred = _one(separable_corpus, separable_model, RulesLiteralClient(),
                    PromptVersion.v4_hybrid, tau=0.0)
        assert pred.source == "ml_direct"


class TestFallback:
    def test_ml_first(self):
        pred = _fallback("s", _evidence(0.4, "panic"), "v2_rules",
                         reason_code="llm_error:X")
        assert (pred.source, pred.label) == ("fallback_ml", "panic")
        assert pred.prompt_version == "v2_rules"

    def test_default_when_nothing_fires(self):
        pred = _fallback("s", None, "v2_rules", reason_code="llm_error:X")
        assert (pred.source, pred.label) == ("fallback_default", "calm")


class TestInfer:
    """One-sample runs through run_pipeline."""

    def test_direct_path_skips_llm(self, separable_corpus, separable_model):
        client = RulesLiteralClient()
        pred = _one(separable_corpus, separable_model, client,
                    PromptVersion.v4_hybrid, tau=0.0)
        assert pred.source == "ml_direct"
        assert client.calls == 0
        assert pred.ml_evidence is not None

    def test_reason_path_records_rationale(self, separable_corpus,
                                            separable_model):
        client = RulesLiteralClient()
        pred = _one(separable_corpus, separable_model, client,
                    PromptVersion.v4_hybrid, tau=1.01)
        assert pred.source == "llm_reasoned"
        assert client.calls == 1
        assert "LABEL:" in pred.rationale

    def test_llm_error_falls_back_to_ml(self, separable_corpus, separable_model):
        pred = _one(separable_corpus, separable_model, TimeoutClient(),
                    PromptVersion.v2_rules)
        assert pred.source == "fallback_ml"
        assert pred.reason_code == "llm_error:LlmTimeout"

    def test_parse_failure_falls_back(self, separable_corpus, separable_model):
        pred = _one(separable_corpus, separable_model,
                    ScriptedClient(["no emotion words here"]),
                    PromptVersion.v1_basic)
        assert pred.source == "fallback_ml"
        assert pred.reason_code == "parse_failure"
        assert pred.rationale == "no emotion words here"


class TestRunPipeline:
    def _run(self, bundle, model, client, version, tau=0.7, n=12):
        entries = bundle.entries[:n] + bundle.entries[-n:]
        return run_pipeline(entries, bundle.features, model, default_ruleset(),
                            bundle.stats, client, version, tau=tau), entries

    def test_missing_features_rejected(self, separable_corpus, separable_model):
        with pytest.raises(DataError, match="no feature vectors for samples"):
            run_pipeline(separable_corpus.entries, {}, separable_model,
                         default_ruleset(), separable_corpus.stats,
                         RulesLiteralClient(), PromptVersion.v1_basic)

    def test_report_accounting(self, separable_corpus, separable_model):
        client = RulesLiteralClient()
        (predictions, report), entries = self._run(
            separable_corpus, separable_model, client, PromptVersion.v2_rules)
        assert report["n"] == len(entries)
        assert report["routed_to_llm"] == len(entries)
        assert report["routed_fraction"] == 1.0
        assert sum(report["source_counts"].values()) == len(entries)
        assert [p.sample_id for p in predictions] == [e.sample_id for e in entries]

    def test_v4_tau_zero_never_calls(self, separable_corpus, separable_model):
        client = RulesLiteralClient()
        (predictions, report), _ = self._run(
            separable_corpus, separable_model, client,
            PromptVersion.v4_hybrid, tau=0.0)
        assert client.calls == 0
        assert report["routed_to_llm"] == 0
        assert all(p.source == "ml_direct" for p in predictions)

    def test_v5_generates_rules_and_reports_drops(self, separable_corpus,
                                                  separable_model):
        (predictions, report), entries = self._run(
            separable_corpus, separable_model, RulesLiteralClient(),
            PromptVersion.v5_auto)
        assert len(report["auto_rules_dropped"]) == 1
        assert len(predictions) == len(entries)

    def test_timeouts_never_abort(self, separable_corpus, separable_model):
        (predictions, report), entries = self._run(
            separable_corpus, separable_model, TimeoutClient(),
            PromptVersion.v2_rules)
        assert len(predictions) == len(entries)
        assert all(p.source.startswith("fallback_") for p in predictions)
        assert len(report["failures"]) == len(entries)

    def test_oracle_client_is_perfect(self, separable_corpus, separable_model):
        client = OracleClient(separable_corpus.gold)
        (predictions, _), entries = self._run(
            separable_corpus, separable_model, client,
            PromptVersion.v2_rules, n=6)
        assert all(p.label == separable_corpus.gold[p.sample_id]
                   for p in predictions)


class TestTextBaseline:
    def test_happy_path(self, separable_corpus):
        entries = separable_corpus.entries[:6]
        transcripts = {e.sample_id: f"i am so {e.gold} right now"
                       for e in entries}
        predictions, report = run_text_baseline(entries, transcripts,
                                                RulesLiteralClient())
        assert [p.label for p in predictions] == [e.gold for e in entries]
        assert all(p.prompt_version == "text_baseline" for p in predictions)
        assert report["routed_to_llm"] == len(entries)

    def test_missing_transcripts_rejected(self, separable_corpus):
        with pytest.raises(DataError, match="no transcripts for samples"):
            run_text_baseline(separable_corpus.entries[:3], {},
                              RulesLiteralClient())

    def test_failures_fall_back_to_default(self, separable_corpus):
        entries = separable_corpus.entries[:3]
        transcripts = {e.sample_id: "words" for e in entries}
        predictions, report = run_text_baseline(entries, transcripts,
                                                TimeoutClient())
        assert all(p.label == "calm" and p.source == "fallback_default"
                   for p in predictions)
        assert len(report["failures"]) == 3


class TestPredictionsFile:
    def test_roundtrip(self, tmp_path):
        predictions = [
            Prediction(sample_id="a", label="panic", source="llm_reasoned",
                       ml_evidence=_evidence(0.6), prompt_version="v4_hybrid",
                       rationale="LABEL: panic", latency_ms=12.5),
            Prediction(sample_id="b", label="calm", source="fallback_default",
                       ml_evidence=None, prompt_version="v2_rules",
                       reason_code="llm_error:LlmTimeout"),
        ]
        path = tmp_path / "predictions.jsonl"
        write_predictions(path, predictions)
        loaded = read_predictions(path)
        assert len(loaded) == 2
        assert loaded[0].sample_id == "a"
        assert loaded[0].latency_ms == 12.5
        assert np.array_equal(loaded[0].ml_evidence.per_class_probs,
                              predictions[0].ml_evidence.per_class_probs)
        assert loaded[1] == predictions[1]
