"""Spans around calls into the `cohom` modules, recorded from outside.

The program is not edited.  For the length of one traced run,
:meth:`Tracer.installed` replaces module attributes (the names callers look
functions up through) with timing wrappers and puts every original back on
exit, also when the run raises.  A function is wrapped under every name any
`cohom` module binds it to, so calls are seen whichever module makes them.

A span records its name, start, end, the span open below it on the same
thread (its parent) and the thread.  Spans stay in memory; the benchmark
reads them when the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

MODULES = ("cohom.optics", "cohom.analytic", "cohom.montecarlo",
           "cohom.benchio", "cohom.validation", "cohom.cli")


@dataclass(frozen=True)
class Target:
    """A function to trace: ``attr`` of module ``module`` (``Class.method``
    for a method), recorded as spans named ``span``.

    ``count(args, kwargs, result)`` returns numbers to attach to the span;
    the name ``label`` in its result replaces the span name.
    """

    span: str
    module: str
    attr: str
    count: Optional[Callable] = None


@dataclass
class Span:
    name: str
    thread: int
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the time its children cover.

        Children are taken from the parent's own thread, where calls nest,
        so they never overlap and their durations add up.
        """
        return self.duration - sum(child.duration for child in self.children)


def resolve(module: str, attr: str):
    """The object at ``module.attr`` (dots in ``attr`` walk into a class),
    or None when the program being measured has no such name."""
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(target.span, threading.get_ident(), parent,
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
                with self._lock:
                    self.spans.append(span)
            if target.count is not None:
                try:
                    span.counts = target.count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    span.counts = {}
                span.name = span.counts.pop("label", span.name)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the ``with`` block.

        Yields the targets absent from the program being measured.
        """
        modules = [importlib.import_module(name) for name in MODULES]
        saved = []
        absent = []
        try:
            for target in targets:
                fn = resolve(target.module, target.attr)
                if fn is None:
                    absent.append(target)
                    continue
                wrapper = self._wrap(target, fn)
                if "." in target.attr:
                    owner_path, name = target.attr.rsplit(".", 1)
                    owners = [resolve(target.module, owner_path)]
                else:
                    owners = modules
                    name = None
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn and (name is None or attr == name):
                            saved.append((owner, attr, value))
                            setattr(owner, attr, wrapper)
            yield absent
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def nesting_violations(self) -> int:
        """Spans whose children leave its interval or outlast it."""
        bad = 0
        for span in self.spans:
            inside = all(span.start <= c.start and c.end <= span.end
                         and c.thread == span.thread for c in span.children)
            if not inside or span.self_time() < 0:
                bad += 1
        return bad
