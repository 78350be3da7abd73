"""In-memory spans recorded around calls into the program's modules.

A :class:`Tracer` replaces a function where its callers look it up (a
module attribute, a class attribute or a dict entry) with a wrapper that
records one span per call: an id, a name, start and end times from
``time.perf_counter``, the id of the enclosing span and the tracer's
current run id.  Spans stay in memory until :meth:`Tracer.dump` writes
them out.  Each thread keeps its own stack of open spans; a span opened
on a worker thread with nothing open on that thread takes the innermost
span open on the main thread as its parent, so rows of a threaded grid
nest under the grid call that started them.

Self time is a span's duration minus the part of its interval covered by
the union of its children's intervals.  Children that overlap each
other, as concurrent rows do, are counted once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Patches:
    """Functions replaced where their callers look them up, and the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) to ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            # class __dict__ keeps plain functions unbound
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore_all(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = "setup"
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches = Patches()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        spans, ids, main_stack, perf = self.spans, self._ids, self._main_stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.run_id))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Trace ``owner.attr`` (or ``owner[attr]`` for a dict) as ``name``."""
        self._patches.replace(owner, attr, lambda fn: self.wrap(name, fn))

    def unpatch_all(self) -> None:
        self._patches.restore_all()

    def dump(self, path) -> None:
        """Write the field names, then one JSON array per span in the order spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in [Span._fields, *self.spans]:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end) for s in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self time, call count)."""
    own = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        acc = out[s.name]
        acc[0] += own[s.sid]
        acc[1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}
