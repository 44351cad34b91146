"""Call tracer for the benchmark: wraps the public functions of the s3lab
modules from outside and records one span per call.

A span is ``[name, tag, start, end, parent, extra]``: ``name`` is
``<module>.<function>`` of the module that defines the function, ``tag`` is
what a tagger extracted from the call's arguments, ``parent`` indexes the
enclosing span (-1 at top level) and ``extra`` holds what an observer
recorded from the arguments and result.  Spans stay in memory until the
caller reads them.

Observers run after their call has returned, with recording paused.  Their
time is recorded as a ``trace.observe`` span under the same parent, so it
never inflates the self time of a traced function.
"""

from __future__ import annotations

import functools
import time

OBSERVE = "trace.observe"


def public_callables(module, layers: dict):
    """(attribute, qualified name, callable) for every public function bound in
    ``module`` whose defining module is one of ``layers``.

    Names imported from a sibling module (``bilinear.cg_table``) are listed
    too, under the name of the module that defines them, because their callers
    look them up through the importing module at call time.
    """
    by_module = {mod.__name__: layer for layer, mod in layers.items()}
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        layer = by_module.get(getattr(obj, "__module__", None))
        if layer is not None:
            yield attr, f"{layer}.{obj.__name__}", obj


class Tracer:
    """Installs span-recording wrappers; ``install`` and ``uninstall`` bracket
    the traced part of a run, ``reset`` drops the recorded spans."""

    def __init__(self, layers: dict, taggers: dict, observers: dict):
        self.layers = layers
        self.taggers = taggers
        self.observers = observers
        self.spans: list = []
        self.originals: dict = {}
        self._stack: list = []
        self._patches: list = []
        self._paused = [False]

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.layers.values():
            for attr, name, fn in list(public_callables(module, self.layers)):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                    self.originals[name] = fn
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, paused = self.spans, self._stack, self._paused
        tagger = self.taggers.get(name)
        observer = self.observers.get(name)
        originals = self.originals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            tag = tagger(args, kwargs) if tagger is not None else None
            span = [name, tag, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observer is not None:
                t0 = clock()
                paused[0] = True
                try:
                    span[5] = observer(args, kwargs, result, originals)
                finally:
                    paused[0] = False
                spans.append([OBSERVE, None, t0, clock(), stack[-1] if stack else -1, None])
            return result

        return traced


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - child[i] for i, span in enumerate(spans)]


def ancestor(spans: list, index: int, name: str):
    """Nearest enclosing span called ``name``, or None."""
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return spans[parent]
        parent = spans[parent][4]
    return None


def function_table(spans: list) -> dict:
    """name -> {calls, s (inclusive), self_s}, summed over the spans."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[3] - span[2]
        row["self_s"] += own
    return table
