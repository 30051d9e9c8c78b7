"""Human-derived reasoning rules, versioned prompts, and the LLM client.

Everything here is deterministic except the network call: rule loading,
prompt construction, and answer parsing are pure functions, and LLM
responses are cached content-addressed by hash(model_name + prompt) so a
warm-cache evaluation run is byte-reproducible.
"""

import contextlib
import hashlib
import json
import math
import operator
import os
import queue
import re
import threading
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .errors import (ConfigError, DataError, LlmError, LlmRateLimited, LlmTimeout,
                     LlmTransportError, member, parse_json, read_text, write_text)
from .features import DIMENSIONS
from .labels import CLASSES

RULES_SCHEMA = "serhybrid-rules-v1"

# a condition's comparator -> the comparison it makes
COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
COMPARATORS = tuple(COMPARISONS)

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

    # field order is the member order of a condition in a rule file
    dimension: str
    comparator: str
    threshold_z: float

    def holds(self, z):
        return COMPARISONS[self.comparator](z, self.threshold_z)

    def render(self):
        return f"{self.dimension} z {self.comparator} {self.threshold_z:+.2f}"


@dataclass(frozen=True)
class Rule:
    """A reasoning heuristic: natural-language statement plus a conjunction
    of feature conditions implying an emotion label."""

    # field order is the member order of a rule in a rule file
    id: str
    statement: str
    conditions: tuple  # of Condition, all must hold
    implied_label: str
    strength: float
    origin: str  # one of ORIGINS


@dataclass(frozen=True)
class ConfusionNote:
    # field order is the member order of a confusion note in a rule file
    labels: tuple  # pair of labels
    text: str


@dataclass(frozen=True)
class RuleSet:
    # field order is the member order of a rule file, after its schema tag
    version: int
    rules: tuple
    confusion_notes: tuple = ()

    def to_json(self):
        return json.dumps({"schema": RULES_SCHEMA, **asdict(self)}, indent=2)

    def save(self, path):
        write_text(path, self.to_json())


ORIGINS = ("human", "refined", "auto")


def parse_rule(doc, where, origin=None):
    """Validate one rule object of a rule file; ConfigError names ``where``.
    A rule generated for v5 passes its ``origin`` instead of reading it."""
    rule_id = member(doc, "id", str, where, ConfigError)
    statement = member(doc, "statement", str, where, ConfigError)
    conditions = []
    for i, c in enumerate(member(doc, "conditions", list, where, ConfigError)):
        at = f"{where}: conditions[{i}]"
        conditions.append(Condition(member(c, "dimension", str, at, ConfigError, DIMENSIONS),
                                    member(c, "comparator", str, at, ConfigError, COMPARATORS),
                                    member(c, "threshold_z", float, at, ConfigError)))
    label = member(doc, "implied_label", str, where, ConfigError, CLASSES)
    strength = member(doc, "strength", float, where, ConfigError)
    if not 0.0 < strength <= 1.0:
        raise ConfigError(f"{where}: strength must be in (0, 1], got {strength}")
    return Rule(id=rule_id, statement=statement, conditions=tuple(conditions),
                implied_label=label, strength=strength,
                origin=origin or member(doc, "origin", str, where, ConfigError, ORIGINS))


def parse_ruleset(text, where="ruleset"):
    doc = parse_json(text, where, ConfigError, RULES_SCHEMA)
    # its members have defaults, so a misspelt one would load as absent
    unknown = [key for key in doc if key not in ("schema", "version", "rules", "confusion_notes")]
    if unknown:
        raise ConfigError(f"{where}: unknown member {unknown[0]!r}")
    version = member(doc, "version", int, where, ConfigError, default=1)
    rules = []
    seen = set()
    for i, rdoc in enumerate(member(doc, "rules", list, where, ConfigError, default=[])):
        rule = parse_rule(rdoc, f"{where}: rules[{i}]")
        if rule.id in seen:
            raise ConfigError(f"{where}: duplicate rule id {rule.id!r}")
        seen.add(rule.id)
        rules.append(rule)
    notes = []
    for i, ndoc in enumerate(member(doc, "confusion_notes", list, where, ConfigError, default=[])):
        at = f"{where}: confusion_notes[{i}]"
        labels = member(ndoc, "labels", list, at, ConfigError)
        if len(labels) != 2 or any(label not in CLASSES for label in labels):
            raise ConfigError(f"{at}: labels must be two of {', '.join(CLASSES)}, got {labels!r}")
        notes.append(ConfusionNote(labels=tuple(labels),
                                   text=member(ndoc, "text", str, at, ConfigError)))
    return RuleSet(version=version, rules=tuple(rules), confusion_notes=tuple(notes))


def load_rules(path):
    """Load and validate a rule file."""
    return parse_ruleset(read_text(path, ConfigError), where=str(path))


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


def build_prompt(version, profile, rules, ml=None):
    """Deterministic prompt text for one sample, around its acoustic
    ``profile`` text from ``features.describe``.

    v1 carries no rules; v2/v3/v5 require a non-empty rule set; v4 adds
    the ML evidence as an auxiliary signal and requires it.
    """
    if version is PromptVersion.v4_hybrid and ml is None:
        raise ConfigError("v4_hybrid prompts require ML evidence")
    if version in (PromptVersion.v2_rules, PromptVersion.v3_refined,
                   PromptVersion.v5_auto) and not rules.rules:
        raise ConfigError(f"{version.value} requires a non-empty rule set")
    parts = [
        "You are an expert in speech emotion analysis. Based on the acoustic "
        "profile below, decide whether the speaker sounds calm, angry, or "
        "panicked.",
        profile,
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
    ``api_key_ref`` when the client is created. Every request asks for
    temperature 0 so evaluation runs are reproducible."""

    base_url: str
    model_name: str
    api_key_ref: str = "SERHYBRID_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 3
    max_in_flight: int = 4
    retry_backoff_s: float = 0.5

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        # a socket timeout or a wait beyond threading.TIMEOUT_MAX is one the
        # OS clock cannot hold
        if not 0.0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ConfigError("timeout_s must be a positive number of at most "
                              f"threading.TIMEOUT_MAX = {threading.TIMEOUT_MAX:.0f} s")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if not 0.0 <= self.retry_backoff_s < math.inf:
            raise ConfigError("retry_backoff_s must be a non-negative finite number")
        # the longest backoff, retry_backoff_s * 2**(max_retries - 1), held
        # against the bound without computing it: ldexp never overflows here
        if self.max_retries and self.retry_backoff_s > math.ldexp(threading.TIMEOUT_MAX,
                                                                  1 - self.max_retries):
            raise ConfigError(
                "retry_backoff_s * 2**(max_retries - 1), the longest backoff, must be at "
                f"most threading.TIMEOUT_MAX = {threading.TIMEOUT_MAX:.0f} s")


@dataclass(frozen=True)
class LlmResult:
    text: str
    cached: bool
    latency_ms: float  # the attempts' network round trips only; 0.0 on cache hit


def query_llm(conn, target, body, headers):
    """Send one chat-completions request over ``conn``; return the answer text.

    One attempt, no retry. The LlmError raised says through ``retryable``
    whether another attempt may succeed: after a timeout, a transport error,
    429 or 5xx it may; after any other status or a malformed body it will
    not. A timeout or transport error closes ``conn``, so its next request
    opens a new connection.
    """
    import http.client  # here, so that commands that send no request never load it
    try:
        conn.request("POST", target, body=body, headers=headers)
        resp = conn.getresponse()
        payload = resp.read()
    except TimeoutError as exc:
        conn.close()
        raise LlmTimeout(f"timeout after {conn.timeout}s: {exc}", retryable=True)
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        raise LlmTransportError(f"{type(exc).__name__}: {exc}", retryable=True)
    if resp.status == 429:
        raise LlmRateLimited("rate limited", retryable=True)
    if resp.status >= 500:
        raise LlmTransportError(f"server error {resp.status}", retryable=True)
    if resp.status != 200:
        raise LlmTransportError(
            f"unexpected status {resp.status}: {payload.decode('utf-8', 'replace')}")
    try:
        text = json.loads(payload)["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise LlmTransportError(f"malformed response body: {exc!r}")
    if not isinstance(text, str):
        raise LlmTransportError(f"malformed response body: content is {text!r}")
    try:
        text.encode("utf-8")  # a JSON escape can hold half a surrogate pair
    except UnicodeEncodeError as exc:
        raise LlmTransportError(f"malformed response body: content is not UTF-8 "
                                f"text ({exc.reason} at character {exc.start})")
    return text


def _peer_closed(sock):
    """Whether an idle keep-alive socket is readable. With no request
    outstanding, that means the peer has closed it (urllib3's
    ``is_connection_dropped`` makes the same test)."""
    import selectors
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


CACHE_FILE = "cache.jsonl"
_CACHE_KEY = re.compile(r"[0-9a-f]{64}")


def _read_cache(path):
    """The answers in the cache file at ``path`` by key. A line that is not
    a UTF-8 JSON object with a ``key`` of 64 hex digits and a ``text``
    string that UTF-8 can encode, such as a blank line or a record cut
    short, is skipped; a repeated key keeps its first record. A missing
    file is an empty cache."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    index = {}
    for line in data.split(b"\n"):
        try:
            record = parse_json(line.decode("utf-8"), path, DataError, None)
            key, text = record.get("key"), record.get("text")
            if isinstance(key, str) and _CACHE_KEY.fullmatch(key) and isinstance(text, str):
                text.encode("utf-8")
                index.setdefault(key, text)
        except (UnicodeError, DataError):
            continue
    return index


class HttpLlmClient:
    """Caching client for an OpenAI-style chat-completions endpoint.

    ``complete`` makes one attempt at a prompt and returns an LlmResult.
    Answers are cached in ``cache_dir``/``cache.jsonl``, one record
    ``{"key": sha256(model_name + "\\x00" + prompt), "text": answer}`` a
    line; the file is read once, when the client is made, and each new
    answer is appended to it and to that index. ``complete_batch`` answers
    the cached prompts on the calling thread, sends each other distinct
    prompt once on at most ``cfg.max_in_flight`` worker threads, retries
    the failures that may succeed later, and returns results in input order.

    A request takes a keep-alive HTTP/1.1 connection from one pool of idle
    ones, or opens one, and puts it back when it ends; a batch thus opens at
    most ``cfg.max_in_flight`` and closes them when it ends. The endpoint is
    reached through the proxy that ``http_proxy``/``https_proxy`` name,
    unless ``no_proxy`` excludes its host.
    """

    def __init__(self, cfg, cache_dir=None):
        import http.client  # here, so that commands that send no request never load them
        import urllib.parse
        import urllib.request
        self.cfg = cfg
        self._cache_file = None
        self._index = {}  # cache key -> answer
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            self._cache_file = os.path.join(cache_dir, CACHE_FILE)
            self._index = _read_cache(self._cache_file)
        url = urllib.parse.urlsplit(cfg.base_url.rstrip("/") + "/chat/completions")
        try:
            port = url.port
        except ValueError as exc:
            raise ConfigError(f"bad endpoint URL {cfg.base_url!r}: {exc}")
        if (url.scheme not in ("http", "https") or not url.hostname
                or re.search(r"[\x00-\x20\x7f]", cfg.base_url)):
            raise ConfigError(f"endpoint URL must be an http:// or https:// URL "
                              f"without spaces, got {cfg.base_url!r}")
        https = url.scheme == "https"
        self._connection_class = (http.client.HTTPSConnection if https
                                  else http.client.HTTPConnection)
        self._endpoint = (url.hostname, port or (443 if https else 80))
        self._target = url.path + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        key = os.environ.get(cfg.api_key_ref, "")
        # a header value is Latin-1 without controls; the message must not show the key
        if re.search(r"[^\x20-\x7e\x80-\xff]", key):
            raise ConfigError(f"the API key in ${cfg.api_key_ref} holds a character "
                              "an HTTP header cannot carry")
        if key:
            self._headers["Authorization"] = f"Bearer {key}"
        self._proxy = None
        self._tunnel_headers = {}
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            purl = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            try:
                self._proxy = (purl.hostname, purl.port or 80)
            except ValueError as exc:
                raise ConfigError(f"bad proxy URL {proxy!r}: {exc}")
            auth = {}
            if purl.username:
                import base64
                creds = (urllib.parse.unquote(purl.username) + ":"
                         + urllib.parse.unquote(purl.password or ""))
                auth["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(creds.encode("utf-8")).decode("ascii"))
            if https:
                self._tunnel_headers = auth  # sent with CONNECT, not to the endpoint
            else:
                # a plain-HTTP proxy takes the absolute URI of the endpoint
                self._target = urllib.parse.urlunsplit(url)
                self._headers.update(auth)
        self._idle = queue.SimpleQueue()  # connections that no request holds

    def _cache_key(self, prompt):
        return hashlib.sha256(
            (self.cfg.model_name + "\x00" + prompt).encode("utf-8")).hexdigest()

    def _body(self, prompt):
        return json.dumps({
            "model": self.cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }).encode("utf-8")

    def _new_connection(self):
        import http.client
        if self._proxy is None:
            return self._connection_class(*self._endpoint, timeout=self.cfg.timeout_s)
        conn = self._connection_class(*self._proxy, timeout=self.cfg.timeout_s)
        if self._connection_class is http.client.HTTPSConnection:
            conn.set_tunnel(*self._endpoint, headers=self._tunnel_headers)
        return conn

    def close(self):
        """Close the idle connections; call with no request in flight. The
        next request opens a new one."""
        while not self._idle.empty():
            self._idle.get_nowait().close()

    def complete(self, prompt):
        """One attempt at ``prompt``: the cached answer if there is one, else
        one request, whose answer is then cached. Raises LlmError."""
        key = self._cache_key(prompt)
        text = self._index.get(key)
        if text is not None:
            return LlmResult(text=text, cached=True, latency_ms=0.0)
        body = self._body(prompt)
        try:
            conn = self._idle.get_nowait()
        except queue.Empty:
            conn = self._new_connection()
        else:
            # closed by the peer while idle: reconnect rather than fail on it
            if conn.sock is not None and _peer_closed(conn.sock):
                conn.close()
        t0 = time.monotonic()
        try:
            text = query_llm(conn, self._target, body, self._headers)
        finally:
            self._idle.put(conn)
        latency = (time.monotonic() - t0) * 1000.0
        if self._cache_file:
            # one write on an O_APPEND descriptor, so records of concurrent
            # writers never interleave. Each starts with a newline, so one
            # that a full disk or a killed writer cut short never joins the
            # next. A write that fails (a full disk, a read-only cache) or
            # is cut short keeps the answer uncached.
            data = ("\n" + json.dumps({"key": key, "text": text},
                                       ensure_ascii=False)).encode("utf-8")
            with contextlib.suppress(OSError):
                fd = os.open(self._cache_file, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    if os.write(fd, data) == len(data):
                        self._index.setdefault(key, text)
                finally:
                    os.close(fd)
        return LlmResult(text=text, cached=False, latency_ms=latency)

    def complete_batch(self, items):
        """items: list of (sample_id, prompt). Returns a list, in input
        order, of LlmResult or LlmError per item.

        Each distinct prompt is sent once, and its outcome goes to every
        item that holds it. A cached prompt is answered on the calling
        thread, so a batch that is all cached starts no worker and opens no
        connection. Attempts run in rounds: round k makes attempt k of every
        prompt still pending, in input order. A timeout, transport error,
        429 or 5xx keeps the prompt pending, up to ``max_retries`` retries.
        Before round k + 1 the calling thread waits once, until the last
        failure of round k is ``retry_backoff_s * 2**(k-1)`` seconds old, so
        no prompt is retried sooner than its backoff after its own failure
        and no worker sleeps.
        """
        outcomes = {}  # prompt -> LlmResult or LlmError of its last attempt
        pending = []
        for prompt in dict.fromkeys(prompt for _, prompt in items):
            if self._cache_key(prompt) in self._index:
                outcomes[prompt] = self.complete(prompt)  # a hit: no request
            else:
                pending.append(prompt)
        latency_ms = dict.fromkeys(pending, 0.0)  # round trips of failed attempts
        failed_at = {}

        def attempt(prompt):
            # the outcome goes into the dict, not back through the pool, and
            # an error goes in without its traceback and the error it
            # replaced: their frames lead back to the future or to this dict,
            # a cycle only the collector breaks
            t0 = time.monotonic()
            try:
                result = self.complete(prompt)
            except LlmError as exc:
                failed_at[prompt] = time.monotonic()
                latency_ms[prompt] += (failed_at[prompt] - t0) * 1000.0
                exc.__context__ = None
                outcomes[prompt] = exc.with_traceback(None)
            else:
                outcomes[prompt] = result if result.cached else replace(
                    result, latency_ms=latency_ms[prompt] + result.latency_ms)

        import concurrent.futures  # here, so that commands that send no request never load it
        try:
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.cfg.max_in_flight) as pool:
                for k in range(self.cfg.max_retries + 1):
                    if not pending:
                        break
                    if k:
                        delay = (max(failed_at[p] for p in pending) - time.monotonic()
                                 + math.ldexp(self.cfg.retry_backoff_s, k - 1))
                        # time.sleep fails once the clock plus the delay passes what
                        # the OS can hold; an Event wait takes any timeout to
                        # TIMEOUT_MAX, and returns at once for one of 0 or less
                        threading.Event().wait(min(delay, threading.TIMEOUT_MAX))
                    list(pool.map(attempt, pending))
                    pending = [p for p in pending if isinstance(outcomes[p], LlmError)
                               and outcomes[p].retryable]
        finally:
            self.close()
        return [outcomes[prompt] for _, prompt in items]


def build_rule_generation_prompt():
    """Ask the LLM to invent rules in the rule-file schema (v5 ablation)."""
    dims = ", ".join(DIMENSIONS)
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


def auto_generate_rules(client):
    """v5: let the LLM propose its own rules; schema-invalid proposals are
    dropped, and an entirely unparseable response raises DataError.
    A request that fails after its retries raises its LlmError, since a
    v5 run has no rules without it."""
    prompt = build_rule_generation_prompt()
    result, = client.complete_batch([("__rule_generation__", prompt)])
    if isinstance(result, LlmError):
        raise type(result)(f"rule generation failed: {result}",
                           result.retryable) from result
    # the first "[" that opens a whole JSON array: prose around the array
    # may hold brackets of its own, such as a citation "[1]"
    if "[" not in result.text:
        raise DataError("rule generation returned no JSON array")
    for start in (i for i, ch in enumerate(result.text) if ch == "["):
        try:
            docs = json.JSONDecoder().raw_decode(result.text, start)[0]
            break
        except json.JSONDecodeError:
            continue
        except RecursionError:
            # nested past the parser's recursion limit; retrying from each
            # "[" inside the nesting would take quadratic time
            raise DataError("rule generation returned invalid JSON") from None
    else:
        raise DataError("rule generation returned invalid JSON")
    rules = []
    seen = set()
    dropped = []
    for i, doc in enumerate(docs):
        try:
            rule = parse_rule(doc, f"generated[{i}]", origin="auto")
        except ConfigError as exc:
            dropped.append(str(exc))
            continue
        if rule.id in seen:
            dropped.append(f"generated[{i}]: duplicate id {rule.id!r}")
            continue
        seen.add(rule.id)
        rules.append(rule)
    if not rules:
        raise DataError("no generated rule survived schema validation")
    return RuleSet(version=1, rules=tuple(rules)), dropped
