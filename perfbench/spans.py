"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces every public function and public method of the
traced serhybrid modules with a wrapper that records a span (name, phase,
start, end, parent) and restores the originals on ``uninstall``. References
bound by ``from module import name`` in other serhybrid modules are patched
too, so calls between modules are seen. Spans stay in memory; ``aggregate``
folds them into per-name totals that can be merged across processes.

A span's self time is its duration minus the durations of its direct
children on the same thread. Spans opened on pool threads (the LLM client's
``complete``) have no parent, so they never reduce the self time of the
batch call that waits for them.
"""

import functools
import importlib
import sys
import threading
import time
import types

LAYERS = ("audio_io", "features", "classifier", "reasoning", "hybrid",
          "refine", "evaluation", "corpus", "cli")


def _cli_span_name(args, kwargs):
    """cli.main spans are named after the subcommand they run."""
    argv = list(args[0] if args else kwargs.get("argv") or [])
    i = 0
    while i < len(argv):
        if argv[i] == "--config":
            i += 2
            continue
        if not argv[i].startswith("-"):
            return f"cli.{argv[i]}"
        i += 1
    return "cli.main"


def _count_items(result):
    return len(result)


def _cached(result):
    return 1 if getattr(result, "cached", False) else 0


# per-span numbers read off a traced call's return value
OBSERVERS = {
    "audio_io.segment": _count_items,
    "refine.propose_rules": _count_items,
    "reasoning.HttpLlmClient.complete": _cached,
}

NAMERS = {"cli.main": _cli_span_name}


class Span:
    __slots__ = ("name", "phase", "start", "end", "child_s", "item")

    def __init__(self, name, phase, start):
        self.name = name
        self.phase = phase
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.item = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module(f"serhybrid.{layer}") for layer in LAYERS}
        replacements = {}  # id(original) -> wrapper, for module-level functions
        for layer, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    replacements[id(value)] = (value, self._wrap(f"{layer}.{name}", value))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("serhybrid") or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                wrapped = self._wrap(span, attr)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(span, attr.__func__))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(span, attr.__func__))
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _wrap(self, name, fn):
        namer = NAMERS.get(name)
        observe = OBSERVERS.get(name)
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(namer(args, kwargs) if namer else name, self.phase, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.item = observe(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                spans.append(span)

        return traced

    # -- aggregation --------------------------------------------------
    def aggregate(self):
        """{"name|phase": {"calls", "total_s", "self_s", "items", "miss_ms"}}.

        ``miss_ms`` lists the durations of LLM completions that were not
        answered from the cache, for latency percentiles.
        """
        out = {}
        for s in self.spans:
            rec = out.setdefault(f"{s.name}|{s.phase}", {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "miss_ms": []})
            dur = s.end - s.start
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - s.child_s
            if s.item is not None:
                rec["items"] += s.item
                if s.name == "reasoning.HttpLlmClient.complete" and s.item == 0:
                    rec["miss_ms"].append(dur * 1000.0)
        return out


def merge(into, other):
    """Add the aggregate ``other`` into ``into`` in place."""
    for key, rec in other.items():
        dst = into.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "items": 0, "miss_ms": []})
        dst["calls"] += rec["calls"]
        dst["total_s"] += rec["total_s"]
        dst["self_s"] += rec["self_s"]
        dst["items"] += rec["items"]
        dst["miss_ms"].extend(rec["miss_ms"])
    return into
