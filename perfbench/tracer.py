"""Span tracing of gvpr functions, patched in from outside the package.

Each target names a function by where its caller looks it up, as
``module:attr`` or ``module:Class.attr``; ``gvpr.relabel:fov_overlap``
traces the calls ``pairwise_similarity`` makes through its own import of
``fov2d.fov_overlap``. ``install`` swaps in wrappers that record one span
per call (name, parent, start, end, failed, phase) in memory, and
``uninstall`` puts the original objects back, so tracing leaves no trace
in the program once it is off.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One traced function: its lookup site, its span name and an optional
    observer ``observe(tracer, args, kwargs, result)`` that adds counts."""

    site: str
    name: str
    observe: Callable | None = None


class Span(NamedTuple):
    name: str
    parent: int  # index into Tracer.spans, or NO_PARENT
    start: float
    end: float
    failed: bool
    phase: str


def _resolve(site: str):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters for a fixed list of targets.

    ``phase`` labels every span and count recorded while it is set, so
    the harness can tell set-up work from timed jobs. Single-threaded:
    the parent of a span is the innermost span open when it starts.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.counters: dict = {}
        self.phase = "setup"
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner, attr = _resolve(target.site)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count(self, key: str, value: float = 1) -> None:
        k = (self.phase, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else NO_PARENT
            spans.append(None)
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(target.name, parent, start, end, failed, self.phase)
            if target.observe is not None:
                target.observe(self, args, kwargs, result)
            return result

        return traced
