"""Human-derived reasoning rules, versioned prompts, and the LLM client.

Everything here is deterministic except the network call: rule loading,
prompt construction, and answer parsing are pure functions, and LLM
responses are cached content-addressed by hash(model_name + prompt) so a
warm-cache evaluation run is byte-reproducible.
"""

import concurrent.futures
import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import requests

from .errors import (EmptyGeneration, EmptyRules, LlmError, LlmRateLimited,
                     LlmTimeout, LlmTransportError, MissingEvidence, SchemaError)
from .features import DIM_INDEX, DIMENSIONS
from .labels import CLASSES

RULES_SCHEMA = "serhybrid-rules-v1"

COMPARATORS = ("<", "<=", ">", ">=")

ANSWER_INSTRUCTION = ("Answer with exactly one line in the form:\n"
                      "LABEL: <calm|angry|panic>")

RULE_GENERATION_MARKER = "Propose reasoning rules"


class PromptVersion(Enum):
    """The five prompt configurations compared in the version ablation."""

    v1_basic = "v1_basic"
    v2_rules = "v2_rules"
    v3_refined = "v3_refined"
    v4_hybrid = "v4_hybrid"
    v5_auto = "v5_auto"


@dataclass(frozen=True)
class Condition:
    """One machine-checkable predicate on a corpus z-score."""

    dimension: str
    comparator: str
    threshold_z: float

    def holds(self, z):
        if self.comparator == "<":
            return z < self.threshold_z
        if self.comparator == "<=":
            return z <= self.threshold_z
        if self.comparator == ">":
            return z > self.threshold_z
        return z >= self.threshold_z

    def render(self):
        return f"{self.dimension} z {self.comparator} {self.threshold_z:+.2f}"


@dataclass(frozen=True)
class Rule:
    """A reasoning heuristic: natural-language statement plus a conjunction
    of feature conditions implying an emotion label."""

    id: str
    statement: str
    conditions: tuple  # of Condition, all must hold
    implied_label: str
    strength: float
    origin: str  # human | refined | auto

    def matches(self, z_by_dim):
        return all(c.holds(z_by_dim[c.dimension]) for c in self.conditions)


@dataclass(frozen=True)
class ConfusionNote:
    labels: tuple  # pair of labels
    text: str


@dataclass(frozen=True)
class RuleSet:
    version: int
    rules: tuple
    confusion_notes: tuple = ()

    def to_json(self):
        return json.dumps({
            "schema": RULES_SCHEMA,
            "version": self.version,
            "rules": [rule_to_dict(r) for r in self.rules],
            "confusion_notes": [{"labels": list(n.labels), "text": n.text}
                                for n in self.confusion_notes],
        }, indent=2)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())


def rule_to_dict(rule):
    """The rule-file form of one Rule; parse_rule reads it back."""
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


def parse_rule(doc, where):
    """Validate one rule object of a rule file; SchemaError names ``where``."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: rule must be a JSON object")
    for key in ("id", "statement", "conditions", "implied_label", "strength", "origin"):
        if key not in doc:
            raise SchemaError(f"{where}: rule missing field {key!r}")
    if not isinstance(doc["conditions"], list):
        raise SchemaError(f"{where}: conditions must be a list")
    conditions = []
    for i, c in enumerate(doc["conditions"]):
        if not isinstance(c, dict):
            raise SchemaError(f"{where}: condition {i} must be a JSON object")
        dim = c.get("dimension")
        if dim not in DIM_INDEX:
            raise SchemaError(f"{where}: unknown dimension {dim!r} in condition {i}")
        cmp_ = c.get("comparator")
        if cmp_ not in COMPARATORS:
            raise SchemaError(f"{where}: bad comparator {cmp_!r} in condition {i}")
        try:
            thr = float(c["threshold_z"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{where}: bad threshold in condition {i}")
        if not thr == thr or thr in (float("inf"), float("-inf")):
            raise SchemaError(f"{where}: non-finite threshold in condition {i}")
        conditions.append(Condition(dim, cmp_, thr))
    label = doc["implied_label"]
    if label not in CLASSES:
        raise SchemaError(f"{where}: unknown implied label {label!r}")
    try:
        strength = float(doc["strength"])
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: strength must be a number, got {doc['strength']!r}")
    if not 0.0 < strength <= 1.0:
        raise SchemaError(f"{where}: strength must be in (0, 1], got {strength}")
    origin = doc["origin"]
    if origin not in ("human", "refined", "auto"):
        raise SchemaError(f"{where}: unknown origin {origin!r}")
    return Rule(id=str(doc["id"]), statement=str(doc["statement"]),
                conditions=tuple(conditions), implied_label=label,
                strength=strength, origin=origin)


def parse_ruleset(text, where="ruleset"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != RULES_SCHEMA:
        raise SchemaError(f"{where}: expected schema {RULES_SCHEMA!r}, got {doc.get('schema')!r}")
    rules = []
    seen = set()
    for i, rdoc in enumerate(doc.get("rules", [])):
        rule = parse_rule(rdoc, f"{where}: rules[{i}]")
        if rule.id in seen:
            raise SchemaError(f"{where}: duplicate rule id {rule.id!r}")
        seen.add(rule.id)
        rules.append(rule)
    notes = []
    for ndoc in doc.get("confusion_notes", []):
        pair = tuple(ndoc["labels"])
        for lbl in pair:
            if lbl not in CLASSES:
                raise SchemaError(f"{where}: confusion note names unknown label {lbl!r}")
        notes.append(ConfusionNote(labels=pair, text=str(ndoc["text"])))
    return RuleSet(version=int(doc.get("version", 1)), rules=tuple(rules),
                   confusion_notes=tuple(notes))


def load_rules(path):
    """Load and validate a rule file."""
    with open(path) as fh:
        return parse_ruleset(fh.read(), where=str(path))


def default_ruleset():
    """The shipped seed rules: high pitch+energy variability implies panic,
    loud high-pitched speech implies angry, stable quiet patterns imply calm."""
    return RuleSet(version=1, rules=(
        Rule(id="panic-variability",
             statement="Large swings in both pitch and loudness across the "
                       "utterance point to panic.",
             conditions=(Condition("pitch_std", ">", 1.0),
                         Condition("energy_std", ">", 1.0)),
             implied_label="panic", strength=0.8, origin="human"),
        Rule(id="angry-intensity",
             statement="Sustained high loudness combined with a raised pitch "
                       "level points to anger.",
             conditions=(Condition("energy_mean", ">", 1.0),
                         Condition("pitch_mean", ">", 0.5)),
             implied_label="angry", strength=0.8, origin="human"),
        Rule(id="calm-stability",
             statement="A stable pitch contour with little loudness variation "
                       "points to a calm speaker.",
             conditions=(Condition("pitch_std", "<", -0.5),
                         Condition("energy_std", "<", -0.5)),
             implied_label="calm", strength=0.8, origin="human"),
    ), confusion_notes=(
        ConfusionNote(labels=("angry", "panic"),
                      text="Angry and panicked speech both raise pitch and "
                           "loudness; panic shows markedly more frame-to-frame "
                           "variability in both."),
    ))


def _render_rules_block(rules):
    lines = ["Apply these reasoning rules. When several rules match, prefer "
             "the one with the highest strength."]
    lines.append("Rules:")
    for r in rules.rules:
        cond = " AND ".join(c.render() for c in r.conditions)
        lines.append(f"- [{r.id}] implies {r.implied_label} "
                     f"(strength {r.strength:.2f}) IF {cond}: {r.statement}")
    if rules.confusion_notes:
        lines.append("Known confusions:")
        for n in rules.confusion_notes:
            lines.append(f"- {n.labels[0]} vs {n.labels[1]}: {n.text}")
    return "\n".join(lines)


def build_prompt(version, desc, rules, ml=None):
    """Deterministic prompt text for one sample.

    v1 carries no rules; v2/v3/v5 require a non-empty rule set; v4 adds
    the ML evidence as an auxiliary signal and requires it.
    """
    if version is PromptVersion.v4_hybrid and ml is None:
        raise MissingEvidence("v4_hybrid prompts require ML evidence")
    if version in (PromptVersion.v2_rules, PromptVersion.v3_refined,
                   PromptVersion.v5_auto) and not rules.rules:
        raise EmptyRules(f"{version.value} requires a non-empty rule set")
    parts = [
        "You are an expert in speech emotion analysis. Based on the acoustic "
        "profile below, decide whether the speaker sounds calm, angry, or "
        "panicked.",
        desc.text,
    ]
    if version is not PromptVersion.v1_basic and rules.rules:
        parts.append(_render_rules_block(rules))
    if version is PromptVersion.v4_hybrid:
        parts.append(
            "Auxiliary machine-learning evidence (supporting signal, not "
            f"ground truth): predicted label '{ml.label}' with confidence "
            f"{ml.confidence:.2f}.")
    parts.append(ANSWER_INSTRUCTION)
    return "\n\n".join(parts)


def build_transcript_prompt(transcript):
    """Text-only baseline prompt: classify emotion from a transcript alone."""
    parts = [
        "You are an expert in speech emotion analysis. Based only on the "
        "transcript below, decide whether the speaker sounds calm, angry, or "
        "panicked.",
        f"Transcript:\n{transcript}",
        ANSWER_INSTRUCTION,
    ]
    return "\n\n".join(parts)


_SCHEMA_LINE = re.compile(r"LABEL:\s*(calm|angry|panic)", re.IGNORECASE)
_ANY_LABEL = re.compile(r"\b(calm|angry|panic)\b", re.IGNORECASE)


def parse_label(raw):
    """Extract the answered label; None signals a parse failure.

    The mandated ``LABEL: <x>`` line wins (last occurrence); otherwise the
    last mention of any class word is taken.
    """
    schema_hits = _SCHEMA_LINE.findall(raw)
    if schema_hits:
        return schema_hits[-1].lower()
    hits = _ANY_LABEL.findall(raw)
    if hits:
        return hits[-1].lower()
    return None


@dataclass(frozen=True)
class LlmEndpointConfig:
    """Where and how to reach the chat-completions endpoint.

    The API key is read from the environment variable named by
    ``api_key_ref`` at request time; temperature is pinned to 0 so
    evaluation runs are reproducible."""

    base_url: str
    model_name: str
    api_key_ref: str = "SERHYBRID_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 3
    temperature: float = 0.0
    max_in_flight: int = 4
    retry_backoff_s: float = 0.5

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class LlmResult:
    text: str
    cached: bool
    latency_ms: float  # network round-trip only; 0.0 on cache hit


def query_llm(prompt, cfg, sample_id=None, session=None):
    """POST one chat-completions request; retry with exponential backoff on
    timeouts, transport errors, 429 and 5xx. Returns the raw answer text."""
    sess = session or requests
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_ref, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    body = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    last_err = None
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(cfg.retry_backoff_s * 2 ** (attempt - 1))
        try:
            resp = sess.post(url, json=body, headers=headers, timeout=cfg.timeout_s)
        except requests.Timeout as exc:
            last_err = LlmTimeout(f"timeout after {cfg.timeout_s}s: {exc}", sample_id)
            continue
        except requests.RequestException as exc:
            last_err = LlmTransportError(str(exc), sample_id)
            continue
        if resp.status_code == 429:
            last_err = LlmRateLimited("rate limited", sample_id)
            continue
        if resp.status_code >= 500:
            last_err = LlmTransportError(f"server error {resp.status_code}", sample_id)
            continue
        if resp.status_code != 200:
            raise LlmTransportError(f"unexpected status {resp.status_code}: {resp.text}",
                                    sample_id)
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise LlmTransportError(f"malformed response body: {exc}", sample_id)
    raise last_err


class HttpLlmClient:
    """Caching client over query_llm.

    ``complete`` returns an LlmResult; responses are cached in
    ``cache_dir`` keyed by sha256(model_name + prompt). ``complete_batch``
    issues at most ``cfg.max_in_flight`` concurrent requests and returns
    results in input order.
    """

    def __init__(self, cfg, cache_dir=None):
        self.cfg = cfg
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        self._session = requests.Session()

    def _cache_path(self, prompt):
        digest = hashlib.sha256(
            (self.cfg.model_name + "\x00" + prompt).encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, digest + ".txt")

    def complete(self, prompt, sample_id=None):
        if self.cache_dir:
            path = self._cache_path(prompt)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    return LlmResult(text=fh.read(), cached=True, latency_ms=0.0)
        t0 = time.monotonic()
        text = query_llm(prompt, self.cfg, sample_id=sample_id, session=self._session)
        latency = (time.monotonic() - t0) * 1000.0
        if self.cache_dir:
            # a temp file per writer: concurrent misses on one prompt each
            # publish a whole file, and the last replace wins
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        return LlmResult(text=text, cached=False, latency_ms=latency)

    def complete_batch(self, items):
        """items: list of (sample_id, prompt). Returns a list, in input
        order, of LlmResult or LlmError per item."""
        results = [None] * len(items)

        def run(idx):
            sample_id, prompt = items[idx]
            try:
                results[idx] = self.complete(prompt, sample_id=sample_id)
            except LlmError as exc:
                results[idx] = exc

        with concurrent.futures.ThreadPoolExecutor(
                max_workers=self.cfg.max_in_flight) as pool:
            list(pool.map(run, range(len(items))))
        return results


def build_rule_generation_prompt(dimension_names=DIMENSIONS):
    """Ask the LLM to invent rules in the rule-file schema (v5 ablation)."""
    dims = ", ".join(dimension_names)
    example = json.dumps([{
        "id": "example-rule",
        "statement": "why the rule holds",
        "conditions": [{"dimension": "pitch_std", "comparator": ">",
                        "threshold_z": 1.0}],
        "implied_label": "panic",
        "strength": 0.5,
        "origin": "auto",
    }])
    return (f"{RULE_GENERATION_MARKER} for classifying a speaker's emotion "
            "as calm, angry, or panic from acoustic statistics. Each rule "
            "tests z-scored feature dimensions against thresholds.\n\n"
            f"Available dimensions: {dims}\n\n"
            "Respond with a JSON array of rule objects exactly in this "
            f"shape:\n{example}")


def auto_generate_rules(client, dimension_names=DIMENSIONS):
    """v5: let the LLM propose its own rules; schema-invalid proposals are
    dropped, and an entirely unparseable response raises EmptyGeneration."""
    prompt = build_rule_generation_prompt(dimension_names)
    result = client.complete(prompt, sample_id="__rule_generation__")
    match = re.search(r"\[.*\]", result.text, re.DOTALL)
    if not match:
        raise EmptyGeneration("rule generation returned no JSON array")
    try:
        docs = json.loads(match.group(0))
    except json.JSONDecodeError:
        raise EmptyGeneration("rule generation returned invalid JSON")
    rules = []
    seen = set()
    dropped = []
    for i, doc in enumerate(docs):
        try:
            doc = dict(doc)
            doc.setdefault("origin", "auto")
            doc["origin"] = "auto"
            rule = parse_rule(doc, f"generated[{i}]")
        except (SchemaError, TypeError) as exc:
            dropped.append(str(exc))
            continue
        if rule.id in seen:
            dropped.append(f"generated[{i}]: duplicate id {rule.id!r}")
            continue
        seen.add(rule.id)
        rules.append(rule)
    if not rules:
        raise EmptyGeneration("no generated rule survived schema validation")
    return RuleSet(version=1, rules=tuple(rules)), dropped
