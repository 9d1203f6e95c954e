"""Span tracing installed around muram from the outside.

A Tracer replaces each probed function or method with a wrapper that
times the call, charges it to its own name and takes its duration out
of the caller's self time.  Module-level functions are replaced in every
muram module namespace that bound them by name (``factor`` lives in
``fppoly`` but is also bound in ``covering`` and ``ramification``), and
methods and dunders are replaced on the class.  ``restore`` puts every
original back.

Calls of probes marked hot (polynomial and group arithmetic, run
millions of times) only count and add to self time; every other call
also records a span (name, start, end, parent span) kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

from layers import PROBES

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self ns, total ns]
        self.extra = {}  # observer counters
        self.spans = []  # (span id, parent span id, name, start ns, end ns)
        self.dropped_spans = 0
        # frames: [name, start ns, child ns, span id of the frame or its nearest spanned ancestor]
        self._stack = [["", 0, 0, -1]]
        self._installed = []  # (owner, attribute, original)
        self._regions = {}

    def bump(self, key, by=1):
        self.extra[key] = self.extra.get(key, 0) + by

    def _wrap(self, fn, name, hot, observe):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = parent[3]
            if not hot:
                if len(spans) < SPAN_CAP:
                    sid = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped_spans += 1
            frame = [name, clock(), 0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration - frame[2]
                stats[2] += duration
                parent[2] += duration
                if sid != parent[3]:
                    spans[sid] = (sid, parent[3], name, frame[1], end)
            if observe is not None:
                observe(tracer, args, result, parent[0])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def call(self, name, fn, *args):
        """fn(*args) as a benchmark-side span named name (one op)."""
        wrapper = self._regions.get(name)
        if wrapper is None:
            wrapper = self._regions[name] = self._wrap(_call, name, False, None)
        return wrapper(fn, *args)

    def install(self):
        for layer in {probe[0] for probe in PROBES}:
            importlib.import_module(f"muram.{layer}")
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "muram"]
        for layer, target, stem, hot, observe in PROBES:
            module = sys.modules[f"muram.{layer}"]
            name = f"{layer}.{stem}"
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(original, name, hot, observe))
            else:
                original = getattr(module, target)
                wrapper = self._wrap(original, name, hot, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, original, wrapper)
                        elif isinstance(value, dict) and not attr.startswith("__"):
                            # dispatch tables such as cli._HANDLERS
                            for key, entry in list(value.items()):
                                if entry is original:
                                    self._set(value, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        _assign(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            _assign(owner, attr, original)

    def result(self):
        return {
            "stats": self.stats,
            "extra": self.extra,
            "spans": [s for s in self.spans if s is not None],
            "dropped_spans": self.dropped_spans,
        }


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _call(fn, *args):
    return fn(*args)


def merge(into, part):
    """Add one traced process's result (stats and extras) into another."""
    for name, row in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    for key, value in part["extra"].items():
        into["extra"][key] = into["extra"].get(key, 0) + value
    into["dropped_spans"] = into.get("dropped_spans", 0) + part.get("dropped_spans", 0)
    return into
