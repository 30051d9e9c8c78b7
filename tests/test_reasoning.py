"""Rules, prompts, answer parsing, and the LLM client."""

import json
import os
import threading

import numpy as np
import pytest
import requests

from mockllm import CANNED_AUTO_RULES, MockLlmServer, ScriptedClient
from serhybrid import reasoning
from serhybrid.errors import (EmptyGeneration, EmptyRules, LlmTimeout,
                              LlmTransportError, MissingEvidence, SchemaError)
from serhybrid.classifier import MlEvidence
from serhybrid.features import DIMENSIONS, CorpusStats, describe
from serhybrid.reasoning import (ANSWER_INSTRUCTION, Condition,
                                 HttpLlmClient, LlmEndpointConfig,
                                 PromptVersion, RuleSet, auto_generate_rules,
                                 build_prompt, build_transcript_prompt,
                                 default_ruleset, load_rules, parse_label,
                                 parse_ruleset, query_llm)
from test_features import vec


def _desc(**overrides):
    stats = CorpusStats(mean=np.zeros(len(DIMENSIONS)),
                        std=np.ones(len(DIMENSIONS)), zero_variance=())
    return describe(vec(**overrides), stats)


def _ml(label="angry", confidence=0.55):
    probs = np.full(3, (1.0 - confidence) / 2.0)
    probs[0] = confidence
    return MlEvidence(label=label, confidence=confidence,
                      per_class_probs=probs, margins=np.zeros(3))


class TestConditions:
    @pytest.mark.parametrize("cmp_,z,expected", [
        ("<", 0.9, True), ("<", 1.0, False),
        ("<=", 1.0, True), ("<=", 1.1, False),
        (">", 1.1, True), (">", 1.0, False),
        (">=", 1.0, True), (">=", 0.9, False),
    ])
    def test_holds(self, cmp_, z, expected):
        assert Condition("pitch_std", cmp_, 1.0).holds(z) is expected

    def test_render(self):
        assert Condition("pitch_std", ">", 1.0).render() == "pitch_std z > +1.00"


class TestRuleSets:
    def test_default_ruleset_shape(self):
        rules = default_ruleset()
        assert rules.version == 1
        assert [r.id for r in rules.rules] == [
            "panic-variability", "angry-intensity", "calm-stability"]
        assert {r.implied_label for r in rules.rules} == {"panic", "angry", "calm"}
        assert all(r.origin == "human" for r in rules.rules)
        assert len(rules.confusion_notes) == 1

    def test_json_roundtrip(self, tmp_path):
        rules = default_ruleset()
        path = tmp_path / "rules.json"
        rules.save(path)
        assert load_rules(path) == rules

    def _doc(self, **rule_overrides):
        doc = json.loads(default_ruleset().to_json())
        doc["rules"][0].update(rule_overrides)
        return doc

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(schema="wrong"),
        lambda d: d["rules"][0]["conditions"][0].update(dimension="nope"),
        lambda d: d["rules"][0]["conditions"][0].update(comparator="!="),
        lambda d: d["rules"][0]["conditions"][0].update(threshold_z="NaN"),
        lambda d: d["rules"][0].update(implied_label="joyful"),
        lambda d: d["rules"][0].update(strength=0.0),
        lambda d: d["rules"][0].update(strength=1.5),
        lambda d: d["rules"][0].update(origin="alien"),
        lambda d: d["rules"][0].pop("statement"),
        lambda d: d["rules"][1].update(id=d["rules"][0]["id"]),
        lambda d: d["confusion_notes"][0].update(labels=["calm", "joyful"]),
        lambda d: d["rules"][0].update(strength="high"),
        lambda d: d["rules"][0].update(conditions="pitch_std > 1"),
        lambda d: d["rules"][0]["conditions"].append("pitch_std > 1"),
    ])
    def test_schema_violations_rejected(self, mutate):
        doc = self._doc()
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_ruleset(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            parse_ruleset("{not json")


class TestPrompts:
    def test_v1_has_no_rules_block(self):
        prompt = build_prompt(PromptVersion.v1_basic, _desc(), default_ruleset())
        assert "Rules:" not in prompt
        assert prompt.endswith(ANSWER_INSTRUCTION)

    def test_v2_renders_every_rule(self):
        rules = default_ruleset()
        prompt = build_prompt(PromptVersion.v2_rules, _desc(), rules)
        for rule in rules.rules:
            assert f"[{rule.id}] implies {rule.implied_label}" in prompt
        assert "Known confusions:" in prompt

    def test_v4_embeds_ml_hint_and_requires_it(self):
        prompt = build_prompt(PromptVersion.v4_hybrid, _desc(),
                              default_ruleset(), ml=_ml())
        assert "predicted label 'angry' with confidence 0.55" in prompt
        with pytest.raises(MissingEvidence):
            build_prompt(PromptVersion.v4_hybrid, _desc(), default_ruleset())

    @pytest.mark.parametrize("version", [PromptVersion.v2_rules,
                                         PromptVersion.v3_refined,
                                         PromptVersion.v5_auto])
    def test_rule_versions_require_rules(self, version):
        with pytest.raises(EmptyRules):
            build_prompt(version, _desc(), RuleSet(version=1, rules=()))

    def test_deterministic(self):
        args = (PromptVersion.v2_rules, _desc(pitch_std=1.3), default_ruleset())
        assert build_prompt(*args) == build_prompt(*args)

    def test_transcript_prompt(self):
        prompt = build_transcript_prompt("leave me alone right now")
        assert "leave me alone right now" in prompt
        assert prompt.endswith(ANSWER_INSTRUCTION)


class TestParseLabel:
    @pytest.mark.parametrize("raw,expected", [
        ("LABEL: panic", "panic"),
        ("label: Angry", "angry"),
        ("thinking...\nLABEL: calm\n", "calm"),
        ("LABEL: calm\nActually no.\nLABEL: panic", "panic"),
        ("the speaker is clearly angry here", "angry"),
        ("could be calm or maybe angry", "angry"),  # last mention wins
        ("no emotion words at all", None),
        ("", None),
    ])
    def test_cases(self, raw, expected):
        assert parse_label(raw) == expected


class _FakeResponse:
    def __init__(self, status_code, content="LABEL: calm"):
        self.status_code = status_code
        self.text = "body"
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class _FakeSession:
    """Replays a script of responses/exceptions for post()."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def post(self, url, **kwargs):
        item = self.script[self.calls]
        self.calls += 1
        if isinstance(item, Exception):
            raise item
        return item


def _cfg(**kw):
    kw.setdefault("base_url", "http://example.invalid/v1")
    kw.setdefault("model_name", "test-model")
    kw.setdefault("retry_backoff_s", 0.0)
    return LlmEndpointConfig(**kw)


class TestQueryLlm:
    def test_retries_after_timeouts(self):
        session = _FakeSession([requests.Timeout("t"), requests.Timeout("t"),
                                _FakeResponse(200, "LABEL: panic")])
        assert query_llm("p", _cfg(), session=session) == "LABEL: panic"
        assert session.calls == 3

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retries_on_retryable_statuses(self, status):
        session = _FakeSession([_FakeResponse(status), _FakeResponse(200)])
        assert query_llm("p", _cfg(), session=session) == "LABEL: calm"
        assert session.calls == 2

    def test_exhausted_retries_raise_last_error(self):
        session = _FakeSession([requests.Timeout("t")] * 3)
        with pytest.raises(LlmTimeout) as err:
            query_llm("p", _cfg(max_retries=2), sample_id="s1", session=session)
        assert err.value.sample_id == "s1"
        assert session.calls == 3

    def test_client_error_not_retried(self):
        session = _FakeSession([_FakeResponse(400)])
        with pytest.raises(LlmTransportError):
            query_llm("p", _cfg(), session=session)
        assert session.calls == 1

    def test_malformed_body_raises(self):
        response = _FakeResponse(200)
        response.json = lambda: {"unexpected": True}
        with pytest.raises(LlmTransportError):
            query_llm("p", _cfg(), session=_FakeSession([response]))

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError):
            _cfg(max_in_flight=0)


class TestHttpClient:
    def test_cache_hit_is_byte_identical_and_free(self, tmp_path):
        with MockLlmServer() as server:
            cfg = _cfg(base_url=server.base_url)
            client = HttpLlmClient(cfg, cache_dir=str(tmp_path / "cache"))
            prompt = build_transcript_prompt("pure panic in the room")
            first = client.complete(prompt)
            second = client.complete(prompt)
            assert not first.cached
            assert second.cached
            assert second.latency_ms == 0.0
            assert second.text == first.text
            assert server.request_count == 1

    def test_concurrent_misses_on_one_prompt_both_complete(self, tmp_path,
                                                           monkeypatch):
        # both writers reach the cache rename together: a temp file shared
        # between them is gone by the time the second rename runs
        barrier = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace_together(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(reasoning.os, "replace", replace_together)
        cache = tmp_path / "cache"
        prompt = build_transcript_prompt("i panic when this happens")
        results, errors = [], []
        with MockLlmServer() as server:
            client = HttpLlmClient(_cfg(base_url=server.base_url),
                                   cache_dir=str(cache))

            def run():
                try:
                    results.append(client.complete(prompt))
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [parse_label(r.text) for r in results] == ["panic", "panic"]
        assert [p.suffix for p in cache.iterdir()] == [".txt"]

    def test_batch_preserves_input_order(self, tmp_path):
        with MockLlmServer() as server:
            cfg = _cfg(base_url=server.base_url, max_in_flight=3)
            client = HttpLlmClient(cfg, cache_dir=str(tmp_path / "cache"))
            words = ["panic", "angry", "calm", "panic", "calm"]
            items = [(f"s{i}", build_transcript_prompt(f"i feel {w}"))
                     for i, w in enumerate(words)]
            results = client.complete_batch(items)
            assert [parse_label(r.text) for r in results] == words

    def test_no_cache_dir_always_queries(self):
        with MockLlmServer() as server:
            client = HttpLlmClient(_cfg(base_url=server.base_url))
            prompt = build_transcript_prompt("calm")
            client.complete(prompt)
            client.complete(prompt)
            assert server.request_count == 2


class TestAutoGeneration:
    def test_valid_rule_kept_invalid_dropped(self):
        client = ScriptedClient(["Here you go:\n" + CANNED_AUTO_RULES])
        rules, dropped = auto_generate_rules(client)
        assert [r.id for r in rules.rules] == ["auto-loud-angry"]
        assert all(r.origin == "auto" for r in rules.rules)
        assert len(dropped) == 1
        assert "sparkle_factor" in dropped[0]

    def test_no_json_array_raises(self):
        with pytest.raises(EmptyGeneration):
            auto_generate_rules(ScriptedClient(["I refuse to answer."]))

    def test_invalid_json_raises(self):
        with pytest.raises(EmptyGeneration):
            auto_generate_rules(ScriptedClient(["[{not valid json]"]))

    def test_malformed_rule_objects_dropped(self):
        good = {"id": "g", "statement": "s", "implied_label": "panic",
                "strength": 0.5, "conditions": [{"dimension": "pitch_std",
                                                 "comparator": ">",
                                                 "threshold_z": 1.0}]}
        answer = json.dumps([dict(good, id="word-strength", strength="high"),
                             dict(good, id="text-condition", conditions=["x"]),
                             good])
        rules, dropped = auto_generate_rules(ScriptedClient([answer]))
        assert [r.id for r in rules.rules] == ["g"]
        assert len(dropped) == 2

    def test_nothing_survives_raises(self):
        bogus = json.dumps([{"id": "x", "statement": "s",
                             "conditions": [{"dimension": "sparkle",
                                             "comparator": ">",
                                             "threshold_z": 1.0}],
                             "implied_label": "panic", "strength": 0.5}])
        with pytest.raises(EmptyGeneration):
            auto_generate_rules(ScriptedClient([bogus]))
