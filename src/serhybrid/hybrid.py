"""Confidence-aware routing and end-to-end inference.

v4_hybrid answers confident samples directly from the classifier and
delegates ambiguous ones to the LLM; v1-v3 and v5 send every sample to
the LLM with their version's prompt. A run classifies its whole batch in
one matrix pass and describes only the samples it routes. Per-sample LLM
failures degrade to a fallback label (the classifier's, else calm) so a
batch always completes.
"""

import json
import math
from dataclasses import dataclass

from .classifier import MlEvidence, predict
from .errors import (ConfigError, DataError, LlmError, member, parse_json, read_text,
                     write_text)
from .features import describe
from .labels import CLASSES
from .reasoning import (PromptVersion, auto_generate_rules, build_prompt,
                        build_transcript_prompt, parse_label)

PREDICTIONS_SCHEMA = "serhybrid-pred-v1"

DEFAULT_TAU = 0.7

SOURCES = ("ml_direct", "llm_reasoned", "fallback_ml", "fallback_default")


@dataclass(frozen=True)
class Prediction:
    # field order is the member order of a predictions line, after its schema tag
    sample_id: str
    label: str
    source: str
    ml_evidence: MlEvidence
    prompt_version: str
    rationale: str = None
    reason_code: str = None
    latency_ms: float = 0.0

    def to_dict(self):
        return {"schema": PREDICTIONS_SCHEMA, **vars(self),
                "ml_evidence": self.ml_evidence.to_dict() if self.ml_evidence else None}

    @classmethod
    def from_dict(cls, doc, where):
        """The Prediction of one predictions line; DataError names ``where``."""
        ml = member(doc, "ml_evidence", dict, where, DataError, default=None)
        if ml is not None:
            ml = MlEvidence.from_dict(ml, f"{where}: ml_evidence", DataError)
        return cls(sample_id=member(doc, "sample_id", str, where, DataError),
                   label=member(doc, "label", str, where, DataError, CLASSES),
                   source=member(doc, "source", str, where, DataError, SOURCES),
                   ml_evidence=ml,
                   prompt_version=member(doc, "prompt_version", str, where, DataError),
                   rationale=member(doc, "rationale", str, where, DataError, default=None),
                   reason_code=member(doc, "reason_code", str, where, DataError, default=None),
                   latency_ms=member(doc, "latency_ms", float, where, DataError, default=0.0))


def _fallback(sample_id, ml, version, reason_code, rationale=None):
    """The classifier's label when the sample has one, else calm."""
    return Prediction(sample_id=sample_id, label=ml.label if ml else "calm",
                      source="fallback_ml" if ml else "fallback_default",
                      ml_evidence=ml, prompt_version=version,
                      rationale=rationale, reason_code=reason_code)


def _resolve(client, routed, version, predictions):
    """Send the routed (index, sample_id, prompt, ml) items in one batch
    and set predictions[index] for each: the parsed answer, or the
    fallback when the LLM fails or its answer names no label.

    Returns (cache_hits, failures).
    """
    cache_hits = 0
    failures = []
    if not routed:
        return cache_hits, failures
    results = client.complete_batch([(sid, prompt) for _, sid, prompt, _ in routed])
    for (i, sid, _, ml), result in zip(routed, results):
        if isinstance(result, LlmError):
            error = type(result).__name__
            failures.append({"sample_id": sid, "error": error})
            predictions[i] = _fallback(sid, ml, version,
                                       reason_code=f"llm_error:{error}")
            continue
        if result.cached:
            cache_hits += 1
        label = parse_label(result.text)
        if label is None:
            failures.append({"sample_id": sid, "error": "ParseFailure"})
            predictions[i] = _fallback(sid, ml, version,
                                       reason_code="parse_failure",
                                       rationale=result.text)
        else:
            predictions[i] = Prediction(sample_id=sid, label=label,
                                        source="llm_reasoned", ml_evidence=ml,
                                        prompt_version=version,
                                        rationale=result.text,
                                        latency_ms=result.latency_ms)
    return cache_hits, failures


def _run_report(version, predictions, cache_hits, failures, **extra):
    """The run report, its counts derived from the predictions: every
    sample not answered directly by the classifier went to the LLM."""
    source_counts = {}
    for p in predictions:
        source_counts[p.source] = source_counts.get(p.source, 0) + 1
    n = len(predictions)
    routed = n - source_counts.get("ml_direct", 0)
    return {
        "schema": "serhybrid-run-report-v1",
        "version": version,
        **extra,
        "n": n,
        "routed_to_llm": routed,
        "routed_fraction": routed / n if n else 0.0,
        "source_counts": source_counts,
        "cache_hits": cache_hits,
        "failures": failures,
    }


def require_all(sample_ids, available, what):
    """Raise DataError naming the sample ids that ``available`` lacks."""
    missing = [i for i in sample_ids if i not in available]
    if missing:
        raise DataError(f"no {what} for samples: {missing[:5]}"
                        + ("..." if len(missing) > 5 else ""))


def run_pipeline(entries, features_by_id, model, rules, stats, client, version,
                 tau=DEFAULT_TAU):
    """Run inference over manifest entries, in manifest order.

    v4_hybrid answers a sample directly when the classifier's confidence
    is >= tau and reasons otherwise, so tau > 1 forces every sample to
    Reason; all other versions always reason. Returns (predictions,
    report). The report counts routing, sources, cache hits, and
    per-sample failures; v5 first asks the LLM to generate its own rule set.
    A tau that is not finite raises ConfigError.
    """
    if not math.isfinite(tau):
        raise ConfigError(f"tau must be a finite number, got {tau}")
    require_all([e.sample_id for e in entries], features_by_id, "feature vectors")
    active_rules = rules
    generated_dropped = []
    if version is PromptVersion.v5_auto:
        active_rules, generated_dropped = auto_generate_rules(client)

    # Phase 1: classify the batch, route it, describe and prompt the routed.
    v4 = version is PromptVersion.v4_hybrid
    vectors = [features_by_id[e.sample_id] for e in entries]
    evidence = predict(model, vectors)
    predictions = [None] * len(entries)
    routed = []
    for i, (entry, ml) in enumerate(zip(entries, evidence)):
        if v4 and ml.confidence >= tau:
            predictions[i] = Prediction(sample_id=entry.sample_id, label=ml.label,
                                        source="ml_direct", ml_evidence=ml,
                                        prompt_version=version.value)
        else:
            routed.append(i)
    profiles = describe([vectors[i] for i in routed], stats)
    items = [(i, entries[i].sample_id,
              build_prompt(version, profile, active_rules, ml=evidence[i] if v4 else None),
              evidence[i])
             for i, profile in zip(routed, profiles)]

    # Phase 2: batched LLM calls, bounded concurrency, input-order results.
    cache_hits, failures = _resolve(client, items, version.value, predictions)
    return predictions, _run_report(version.value, predictions, cache_hits, failures,
                                    tau=tau, auto_rules_dropped=generated_dropped)


TEXT_BASELINE = "text_baseline"


def run_text_baseline(entries, transcripts_by_id, client):
    """Transcript-only baseline: no acoustic features, no routing.

    Every sample is sent to the LLM with its pre-computed transcript;
    failures fall back to the default label.
    """
    require_all([e.sample_id for e in entries], transcripts_by_id, "transcripts")
    routed = [(i, e.sample_id, build_transcript_prompt(transcripts_by_id[e.sample_id]), None)
              for i, e in enumerate(entries)]
    predictions = [None] * len(entries)
    cache_hits, failures = _resolve(client, routed, TEXT_BASELINE, predictions)
    return predictions, _run_report(TEXT_BASELINE, predictions, cache_hits, failures)


def write_predictions(path, predictions):
    """JSONL, one Prediction per line, in input order."""
    write_text(path, "".join(json.dumps(p.to_dict()) + "\n" for p in predictions))


def read_predictions(path):
    """The Prediction of each non-blank line; a repeated sample id raises
    DataError naming its line."""
    out = []
    seen = set()
    for n, line in enumerate(read_text(path, DataError).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path} line {n}"
        prediction = Prediction.from_dict(parse_json(line, where, DataError, PREDICTIONS_SCHEMA),
                                          where)
        if prediction.sample_id in seen:
            raise DataError(f"{where}: duplicate sample_id {prediction.sample_id!r}")
        seen.add(prediction.sample_id)
        out.append(prediction)
    return out
