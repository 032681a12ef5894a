"""Outside-in tracer: spans and counters around ptgsolve's functions.

The tracer changes no file of the program.  It replaces a function by a
wrapper at every place the function is bound, because ``from x import f``
binds a second name: the defining module, each ``ptgsolve`` module that
imported it, and the class for methods.  ``restore`` puts the originals
back.  A target that no longer exists is recorded with the reason and
skipped, so a renamed function costs its metrics, not the run.

A span records its name, start, end, parent span and document id.  Spans
stay in memory until the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

NAME, START, END, PARENT, DOC = range(5)


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  A span
    probe times each call under ``name``; a count probe only counts calls
    under ``name``.  ``on_return(tracer, result)`` and
    ``on_raise(tracer, exc)`` read counts off a call; ``only`` limits
    wrapping to the bindings in the named modules.
    """

    target: str
    name: str
    kind: str = "span"  # span | count
    on_return: Optional[Callable] = None
    on_raise: Optional[Callable] = None
    only: Optional[tuple] = None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, doc]
        self.counts = Counter()
        self.missing = {}  # probe name -> reason, for every probe not installed
        self.doc = None
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount=1):
        self.counts[counter] += amount

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[i][NAME] == name for i in self._stack)

    @contextmanager
    def region(self, name: str):
        """A span around the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.doc]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, probe: Probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [probe.name, clock(), 0.0, stack[-1] if stack else -1, self.doc]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if probe.on_raise is not None:
                    probe.on_raise(self, exc)
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if probe.on_return is not None:
                probe.on_return(self, result)
            return result

        return traced

    def _count_wrapper(self, fn, probe: Probe):
        counts, name = self.counts, probe.name

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ----------------------------------------------------------

    def install(self, probes):
        for probe in probes:
            reason = self._install(probe)
            if reason is not None:
                self.missing.setdefault(probe.name, reason)

    def _install(self, probe: Probe):
        modname, _, path = probe.target.partition(":")
        try:
            module = importlib.import_module(modname)
        except ImportError as exc:
            return f"{probe.target}: {exc}"
        owner, attr = module, path
        if "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(module, cls_name, None)
            if not isinstance(owner, type):
                return f"{probe.target}: {modname} has no class {cls_name}"
            raw = owner.__dict__.get(attr)
            if raw is None:
                return f"{probe.target}: {cls_name} has no attribute {attr}"
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(func):
                return f"{probe.target}: not a function"
            wrapped = self._wrapper(func, probe)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._patch(owner, attr, wrapped)
            return None
        func = getattr(module, attr, None)
        if not callable(func):
            return f"{probe.target}: {modname} has no function {attr}"
        wrapped = self._wrapper(func, probe)
        bound = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ptgsolve" or name.startswith("ptgsolve.")):
                continue
            if probe.only is not None and name not in probe.only:
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    self._patch(mod, key, wrapped)
                    bound += 1
        if bound == 0:
            return f"{probe.target}: bound in none of {probe.only}"
        return None

    def _wrapper(self, func, probe: Probe):
        if probe.kind == "count":
            return self._count_wrapper(func, probe)
        return self._span_wrapper(func, probe)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, rec in enumerate(self.spans):
            row = out[rec[NAME]]
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child[i]
        return dict(out)

    def write(self, path):
        """Spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
