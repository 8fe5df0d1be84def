"""Span tracing of rltsketch's public functions, installed from outside.

`Tracer.install` replaces every module attribute of the traced layers that is
bound to a public rltsketch function, and every public method of the layers'
classes, with a wrapper that records a span (name, start, end, parent) and a
call count. Binding by attribute matters: `tree` and `euclid` import their
helpers by name, so wrapping only the defining module would miss those calls.
`uninstall` puts every original back.

Spans are kept in memory and written out by `write_trace`. Names are
`<layer>.<function>` or `<layer>.<Class>.<method>`, where the layer is the
module that defines the function.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import resource
import time

PACKAGE = "rltsketch"
LAYERS = ("harness", "metric", "tree", "euclid", "bits", "codec", "estimator")

# Spans after which the process's peak RSS is sampled.
RSS_AFTER = {"tree.build_hierarchy"}


def _layer_of(obj) -> str | None:
    """The traced layer that defines obj, or None."""
    mod = getattr(obj, "__module__", None) or ""
    prefix = PACKAGE + "."
    if mod.startswith(prefix) and mod[len(prefix):] in LAYERS:
        return mod[len(prefix):]
    return None


@dataclasses.dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span, -1 at top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.rss_mb: dict[str, list[float]] = {}
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [importlib.import_module(PACKAGE)]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                continue  # a removed layer shows up as missing names
        wrappers: dict[int, object] = {}  # one wrapper per original function
        classes: set[int] = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                layer = _layer_of(obj)
                if attr.startswith("_") or layer is None:
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._patch(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and id(obj) not in classes:
                    classes.add(id(obj))
                    self._wrap_class(obj, layer)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missing(self, names) -> list[str]:
        """Expected span names that no wrapped function carries."""
        return sorted(set(names) - self.wrapped)

    def _wrap_class(self, cls, layer: str):
        names = [a for a in vars(cls) if not a.startswith("_")]
        if not dataclasses.is_dataclass(cls):
            names.append("__init__")
        for attr in names:
            fn = vars(cls).get(attr)
            if inspect.isfunction(fn):
                self._patch(cls, attr, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}"))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str):
        self.wrapped.add(name)
        spans, calls, stack = self.spans, self.calls, self._stack
        clock = time.perf_counter
        sample_rss = name in RSS_AFTER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(sid, name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            calls[name] = calls.get(name, 0) + 1
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if sample_rss:
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    self.rss_mb.setdefault(name, []).append(rss)

        return traced

    # -- reading ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.rss_mb.clear()

    def total_s(self, name: str) -> float:
        """Summed duration of the spans of one name (no public function of
        rltsketch calls itself, so these never nest)."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def top_level_s(self, prefix: str) -> float:
        """Summed duration of spans whose name starts with prefix and that are
        not nested inside another such span."""
        return sum(s.end - s.start for s in self.spans if s.name.startswith(prefix)
                   and not any(a.name.startswith(prefix) for a in self.ancestors(s)))

    def count(self, prefix: str) -> int:
        return sum(c for n, c in self.calls.items() if n.startswith(prefix))

    def ancestors(self, span: Span):
        """The spans enclosing span, innermost first."""
        p = span.parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name: span durations minus the time their child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.sid]
    return out


def write_trace(path: str, extra: dict, spans: list[Span], calls: dict[str, int],
                max_spans: int = 200_000):
    """Write spans (capped at max_spans), call counts and self times as JSON."""
    doc = dict(extra)
    doc["calls"] = dict(sorted(calls.items()))
    doc["self_s"] = dict(sorted(self_times(spans).items()))
    doc["spans_total"] = len(spans)
    doc["spans"] = [[s.sid, s.name, s.start, s.end, s.parent] for s in spans[:max_spans]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
