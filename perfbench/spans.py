"""In-memory spans recorded around calls into the program's layers.

A :class:`SpanRecorder` keeps every span (name, start, end, parent)
until the run ends.  Calls made once per point are too many for one
span each, so :meth:`SpanRecorder.wrap_hot` only adds to a per-name
count and total and charges the time to the enclosing span, which keeps
self times exact.  A span's self time is its duration minus the part of
it covered by child spans and by hot calls made directly inside it.

:class:`Patcher` swaps an attribute of a module or class for a wrapper
and puts the original back on :meth:`Patcher.restore`; nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

Clock = Callable[[], float]


@dataclass
class SpanRecord:
    """One timed call; ``hot_s`` is time spent in hot calls made inside it."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    hot_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Span id -> duration minus the time its children and hot calls cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (a thread that kept running) is not charged
    twice.
    """
    spans = list(spans)
    children: dict[int, list[SpanRecord]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
        )
        out[span.id] = max(0.0, span.duration - covered - span.hot_s)
    return out


class SpanRecorder:
    """Thread-aware span and hot-call recorder; inactive recorders pass through."""

    def __init__(self, clock: Clock = time.monotonic) -> None:
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self.hot: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord | None]:
        if not self.active:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            id=span_id,
            name=name,
            start=self.clock(),
            parent=stack[-1].id if stack else None,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_hot(self, name: str, seconds: float) -> None:
        """Count one call taking ``seconds`` under ``name``."""
        stack = self._stack()
        with self._lock:
            slot = self.hot[name]
            slot[0] += 1
            slot[1] += seconds
        if stack:
            stack[-1].hot_s += seconds

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[[SpanRecord, Any, tuple, dict], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``after(span, result, args, kwargs)`` then adds
        attributes, outside the timed interval."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None and record is not None:
                after(record, result, args, kwargs)
            return result

        return wrapper

    def wrap_hot(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` counted and timed in aggregate, without a span per call."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_hot(name, clock() - start)

        return wrapper

    # -- summaries ----------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Name -> ``{"count", "total_s", "self_s"}`` over spans and hot calls."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = out[span.name]
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.id]
        for name, (count, seconds) in self.hot.items():
            row = out[name]
            row["count"] += count
            row["total_s"] += seconds
            row["self_s"] += seconds
        return dict(out)

    def named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, root: SpanRecord) -> list[SpanRecord]:
        """Every span recorded below ``root`` (any depth)."""
        kids: dict[int, list[SpanRecord]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[span.parent].append(span)
        out: list[SpanRecord] = []
        todo = [root.id]
        while todo:
            for child in kids[todo.pop()]:
                out.append(child)
                todo.append(child.id)
        return out


class Patcher:
    """Replace attributes with wrappers; :meth:`restore` undoes every swap."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Any]
    ) -> None:
        """``owner.attr = make(original)``; classmethods stay classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
