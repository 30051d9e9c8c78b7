"""Scripted LLM stand-ins for tests.

The central piece is the "rules-literal" responder: it reads the rule
lines and the z-scored acoustic profile out of a prompt, applies the
strongest matching rule, falls back to the auxiliary ML hint if present,
and answers "calm" otherwise. It models an obedient reader of the prompt
and nothing more, so prompt-version comparisons measure the prompts, not
the model. The same responder is exposed as in-process client objects
(duck-typing HttpLlmClient) and as a real HTTP chat-completions server.
"""

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from serhybrid.errors import LlmTimeout
from serhybrid.reasoning import RULE_GENERATION_MARKER, Condition, LlmResult

_RULE_LINE = re.compile(
    r"^- \[(?P<id>[^\]]+)\] implies (?P<label>\w+) "
    r"\(strength (?P<strength>[0-9.]+)\) IF (?P<conds>.+?): ")
_CONDITION = re.compile(r"(\w+) z (<=|>=|<|>) ([+-]?[0-9.]+)")
_PROFILE_LINE = re.compile(r"^- [^\[]+\[(\w+)\]: [a-z ]+ \(z=([+-][0-9.]+)\)")
_ML_HINT = re.compile(r"predicted label '(\w+)' with confidence")
_TRANSCRIPT = re.compile(r"Transcript:\n(.*?)(?:\n\n|$)", re.DOTALL)


def parse_prompt(prompt):
    """Pull (z_by_dim, rules, ml_hint) out of a reasoning prompt."""
    z_by_dim = {}
    rules = []
    for line in prompt.splitlines():
        m = _PROFILE_LINE.match(line)
        if m:
            z_by_dim[m.group(1)] = float(m.group(2))
            continue
        m = _RULE_LINE.match(line)
        if m:
            conds = [(dim, cmp_, float(thr))
                     for dim, cmp_, thr in _CONDITION.findall(m.group("conds"))]
            rules.append({"id": m.group("id"), "label": m.group("label"),
                          "strength": float(m.group("strength")),
                          "conditions": conds})
    hint = _ML_HINT.search(prompt)
    return z_by_dim, rules, hint.group(1) if hint else None


# what the mock proposes when asked to invent rules (v5): one schema-valid
# but mediocre rule, plus one invalid entry the pipeline must drop
CANNED_AUTO_RULES = json.dumps([
    {"id": "auto-loud-angry",
     "statement": "Loud utterances tend to be angry.",
     "conditions": [{"dimension": "energy_mean", "comparator": ">",
                     "threshold_z": 0.8}],
     "implied_label": "angry", "strength": 0.6, "origin": "auto"},
    {"id": "auto-bogus",
     "statement": "References a dimension that does not exist.",
     "conditions": [{"dimension": "sparkle_factor", "comparator": ">",
                     "threshold_z": 1.0}],
     "implied_label": "panic", "strength": 0.5, "origin": "auto"},
])


def rules_literal_answer(prompt):
    """Deterministic response text for any pipeline prompt."""
    if RULE_GENERATION_MARKER in prompt:
        return "Here are my proposed rules:\n" + CANNED_AUTO_RULES
    transcript = _TRANSCRIPT.search(prompt)
    if transcript:
        words = transcript.group(1).lower()
        for label in ("panic", "angry", "calm"):
            if label in words:
                return f"LABEL: {label}"
        return "LABEL: calm"
    z_by_dim, rules, hint = parse_prompt(prompt)
    best = None
    for rule in rules:
        if all(dim in z_by_dim and Condition(dim, cmp_, thr).holds(z_by_dim[dim])
               for dim, cmp_, thr in rule["conditions"]):
            if best is None or rule["strength"] > best["strength"]:
                best = rule
    if best:
        return f"The rule [{best['id']}] matches.\nLABEL: {best['label']}"
    if hint:
        return f"No rule matches; deferring to the auxiliary signal.\nLABEL: {hint}"
    return "No rule matches.\nLABEL: calm"


class RulesLiteralClient:
    """In-process client answering every prompt with rules_literal_answer."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, sample_id=None):
        self.calls += 1
        return LlmResult(text=rules_literal_answer(prompt), cached=False,
                         latency_ms=0.0)

    def complete_batch(self, items):
        return [self.complete(prompt, sample_id=sid) for sid, prompt in items]


class OracleClient:
    """Answers with the gold label of the sample being asked about."""

    def __init__(self, gold_by_id):
        self.gold_by_id = gold_by_id
        self.calls = 0

    def complete(self, prompt, sample_id=None):
        self.calls += 1
        if RULE_GENERATION_MARKER in prompt:
            return LlmResult(text=CANNED_AUTO_RULES, cached=False, latency_ms=0.0)
        return LlmResult(text=f"LABEL: {self.gold_by_id[sample_id]}",
                         cached=False, latency_ms=0.0)

    def complete_batch(self, items):
        return [self.complete(prompt, sample_id=sid) for sid, prompt in items]


class TimeoutClient:
    """Every call fails like an endpoint that never answers."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, sample_id=None):
        self.calls += 1
        raise LlmTimeout("mock endpoint timed out")

    def complete_batch(self, items):
        results = []
        for sid, prompt in items:
            try:
                results.append(self.complete(prompt, sample_id=sid))
            except LlmTimeout as exc:
                results.append(exc)
        return results


class ScriptedClient:
    """Fixed text (or exception instance) per call, in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt, sample_id=None):
        response = self.responses[min(self.calls, len(self.responses) - 1)]
        self.calls += 1
        if isinstance(response, Exception):
            raise response
        return LlmResult(text=response, cached=False, latency_ms=0.0)

    def complete_batch(self, items):
        out = []
        for sid, prompt in items:
            try:
                out.append(self.complete(prompt, sample_id=sid))
            except Exception as exc:  # noqa: BLE001 - mirrored into results
                out.append(exc)
        return out


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        if not self.path.endswith("/chat/completions"):
            self.send_error(404)
            return
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        prompt = body["messages"][0]["content"]
        self.server.request_count += 1
        answer = rules_literal_answer(prompt)
        payload = json.dumps({
            "choices": [{"message": {"role": "assistant", "content": answer}}],
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class MockLlmServer:
    """Local HTTP chat-completions endpoint running the rules-literal mock,
    on ``port`` or, by default, on a free one."""

    def __init__(self, port=0):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self.httpd.request_count = 0
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    @property
    def base_url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1"

    @property
    def request_count(self):
        return self.httpd.request_count

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
