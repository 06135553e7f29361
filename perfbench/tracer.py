"""Spans recorded from outside the program by wrapping its public functions.

Entering a ``Tracer`` replaces every public function defined in the listed
gaussocc modules with a timing wrapper, at every module attribute that holds
it. A caller that imported the function by name (``pipeline`` imports
``load_scene`` from ``harness``) therefore reaches the wrapper too, because
Python resolves module globals at call time. A function that no longer
exists is simply absent from the spans; leaving restores the originals.
Spans nest through a per-thread
stack, so self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import resource
import sys
import threading
import time

PACKAGE = "gaussocc"
MODULES = (
    "harness", "formats", "params", "core", "lifting",
    "smoothing", "fusion", "head", "metrics", "pipeline",
)


def maxrss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Install with ``with Tracer(capture):``; spans stay in memory until ``summary``.

    For each span name in ``capture``, every call appends (bound arguments by
    parameter name, result) to ``captures[name]``. Only references are kept,
    so whatever is computed from them is computed after the traced call.
    """

    def __init__(self, capture=()):
        self.spans: list[list] = []  # [id, name, start, end, parent id, rss before, rss after]
        self.captures: dict[str, list] = {}
        self._capture = frozenset(capture)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def __enter__(self):
        targets = {}
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                targets[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn) if name in self._capture else None
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, 0.0, 0.0, stack[-1] if stack else None, maxrss_mb(), 0.0]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                span[6] = maxrss_mb()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.captures.setdefault(name, []).append((bound.arguments, result))
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per function: inclusive and self seconds, calls, RSS high-water growth."""
        child_s: dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None:
                child_s[span[4]] = child_s.get(span[4], 0.0) + span[3] - span[2]
        out: dict[str, dict] = {}
        for span_id, name, start, end, _parent, rss_before, rss_after in self.spans:
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "child_s": 0.0, "calls": 0, "rss_step_mb": 0.0})
            entry["s"] += end - start
            entry["child_s"] += child_s.get(span_id, 0.0)
            entry["self_s"] += end - start - child_s.get(span_id, 0.0)
            entry["calls"] += 1
            entry["rss_step_mb"] += rss_after - rss_before
        return out
