"""Span tracing by wrapping the names the library's modules call.

`Tracer.wrap(owner, attr, span)` replaces `owner.attr` (a module-level name,
a plain method or a classmethod) with a wrapper that records a span
(name, start, end, parent) around each call.  Spans stay in memory; the
caller writes them out once the run is over.  A wrapper may also feed a
count hook that sees the call's arguments and result.

A name that no longer exists is recorded in `missing` instead of being
wrapped, so a renamed function shows up as missing rather than as zero.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

_perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    child_s: float   # time covered by direct children


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, span: str, count=None) -> bool:
        """Wrap `owner.attr`; returns False (and records it) if it is missing."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(label)
            return False
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapped = self._traced(fn, span, count)
        setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
        self._undo.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put every wrapped name back, last wrapped first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _traced(self, fn, span: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = Span(span, _perf(), 0.0, parent, 0.0)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = _perf()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += rec.end - rec.start
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    # ---------------------------------------------------------- reporting

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - s.child_s
        return dict(out)

    def self_time_under(self, root: str) -> float:
        """Summed self time of every span inside a `root` span, the root included."""
        inside: list[bool] = []
        total = 0.0
        for s in self.spans:
            flag = s.name == root or (s.parent >= 0 and inside[s.parent])
            inside.append(flag)
            if flag:
                total += (s.end - s.start) - s.child_s
        return total

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]
