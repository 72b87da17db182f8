"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``repro`` layers from outside
the package: class methods are replaced on their class, and module-level
functions are replaced in every loaded ``repro`` module that bound the
same function object (``from x import f`` copies the binding).  Each
wrapped call records a span ``[name, start_ns, end_ns, parent, op, pid]``
in memory; count-only wrappers bump a counter instead, for functions
called too often to span (``Environment.schedule``).  Spans are written
out once, when the run ends.

Supervised campaign cells run in forked workers, which inherit the
installed wrappers.  The worker entry point is wrapped too, so each
worker writes the spans it recorded to ``<child_dir>/<pid>.json`` just
before it exits; :meth:`Tracer.merge_children` folds them back in.

Self time of a span is its duration minus the durations of its direct
children (spans on one thread nest strictly, so the children never
overlap each other).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory spans and counters around wrapped layer entry points."""

    def __init__(self, child_dir: Optional[str] = None):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: values noted once per item (ms per put, per campaign, ...)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op: Optional[int] = None
        #: prefixed to counter names; lets a caller keep one stretch of
        #: work (an uninstrumented comparison run) out of the main counts
        self.count_prefix = ""
        self.child_dir = child_dir
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.count_prefix + name] += amount

    def note(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def _call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        # A layer re-entering itself (canonical_profile_bytes ->
        # profile_to_dict) is one span, not two.
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter_ns(), 0,
                stack[-1] if stack else -1, self.op, os.getpid()]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter_ns()

    # -- installing ----------------------------------------------------
    def traced(self, fn: Callable, name, before=None, after=None, span=True):
        """``fn`` wrapped to record a span (or, with ``span=False``, a count)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            label = name(args) if callable(name) else name
            if span:
                result = tracer._call(label, fn, args, kwargs)
            else:
                tracer.count(label)
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def wrap_method(self, cls, attr: str, name, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.traced(original, name, **hooks))

    def wrap_function(self, module_name: str, attr: str, name, **hooks) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.traced(original, name, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if vars(module).get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def wrap_worker_entry(self, module_name: str, attr: str) -> None:
        """Make forked workers dump their spans before they exit."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def worker_entry(*args, **kwargs):
            start = len(tracer.spans)
            counts_at_fork = dict(tracer.counts)
            tracer._local.stack = []
            try:
                return original(*args, **kwargs)
            finally:
                tracer._dump_child(start, counts_at_fork)

        self._patches.append((module, attr, original))
        setattr(module, attr, worker_entry)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- child processes -----------------------------------------------
    def _dump_child(self, start: int, counts_at_fork: Dict[str, float]) -> None:
        if self.child_dir is None:
            return
        spans = []
        for span in self.spans[start:]:
            # Parent links become offsets into the dumped block; links
            # to pre-fork spans of the parent process are cut.
            parent = span[3] - start if span[3] >= start else -1
            spans.append(span[:3] + [parent] + span[4:])
        path = os.path.join(self.child_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            counts = {
                name: value - counts_at_fork.get(name, 0)
                for name, value in self.counts.items()
            }
            json.dump({"spans": spans, "counts": counts}, handle,
                      separators=(",", ":"))

    def merge_children(self) -> None:
        """Fold the span files of forked workers into this tracer."""
        if self.child_dir is None or not os.path.isdir(self.child_dir):
            return
        for entry in sorted(os.listdir(self.child_dir)):
            with open(os.path.join(self.child_dir, entry), encoding="utf-8") as handle:
                payload = json.load(handle)
            offset = len(self.spans)
            for span in payload["spans"]:
                if span[3] >= 0:
                    span[3] += offset
                self.spans.append(span)
            for name, value in payload["counts"].items():
                self.counts[name] += value

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "pid"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "samples": dict(self.samples),
                },
                handle,
                separators=(",", ":"),
            )

    def totals(self, ops: Optional[set] = None) -> Dict[str, dict]:
        """Per span name: total and self milliseconds."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, dict] = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0})
        for index, span in enumerate(self.spans):
            if ops is not None and span[4] not in ops:
                continue
            row = out[span[0]]
            duration = span[2] - span[1]
            row["ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[index]) / 1e6
        return out
