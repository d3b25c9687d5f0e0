"""A thread-safe registry of named counters, gauges, and histograms.

This is the metrics substrate shared by the fit and serve paths (the
serving engine records its ``serve.*`` instruments here directly):
every instrument lives under a dotted name in one
:class:`MetricsRegistry`, all mutation happens behind a single lock,
and the whole registry reduces to a plain-dict :meth:`snapshot` that is
JSON-ready and **mergeable**: :meth:`merge` folds one registry's
snapshot into another.  Merging is associative and order-independent
for counters and histograms (pure addition / min-max).  The fit's
block threads record into the caller's registry directly; the lock
makes that safe.

Instruments
-----------
* :class:`Counter` -- a monotonically increasing number (``inc``).
* :class:`Gauge` -- a point-in-time value (``set``); merge is
  last-write-wins (the incoming snapshot overwrites).
* :class:`Histogram` -- observation count / sum / min / max plus
  optional cumulative-style bucket counts over fixed upper edges (the
  last bucket is open-ended).  With ``buckets=()`` it degrades to a
  summary (count / sum / min / max only).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "bucket_labels"]

_INF = float("inf")


def bucket_labels(edges: Sequence[float]) -> list[str]:
    """Human-readable labels for bucket edges: ``<=e`` ... ``>last``."""
    fmt = [f"<={_fmt_edge(e)}" for e in edges]
    if edges:
        fmt.append(f">{_fmt_edge(edges[-1])}")
    return fmt


def _fmt_edge(edge: float) -> str:
    return str(int(edge)) if float(edge).is_integer() else str(edge)


class Counter:
    """A monotonically increasing value.  Mutate via :meth:`inc`."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock | None = None) -> None:
        # registry counters share the registry's lock; a standalone
        # counter brings its own
        self._lock = lock if lock is not None else threading.Lock()
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value.  Mutate via :meth:`set`."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Count/sum/min/max plus optional bucket counts over fixed edges.

    ``edges`` are ascending upper bounds; one extra open-ended bucket
    catches everything above the last edge.  An empty ``edges`` tuple
    makes this a pure summary.
    """

    __slots__ = ("_lock", "edges", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, lock: threading.Lock, edges: Sequence[float] = ()) -> None:
        edges = tuple(float(e) for e in edges)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must be strictly ascending, got {edges}")
        self._lock = lock
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1 if edges else 0)
        self.count = 0
        self.sum = 0.0
        self.min = _INF
        self.max = -_INF

    def observe(self, value: int | float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            if self.edges:
                self.bucket_counts[self._bucket(value)] += 1

    def _bucket(self, value: float) -> int:
        for i, edge in enumerate(self.edges):
            if value <= edge:
                return i
        return len(self.edges)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view (caller holds no lock; registry locks).

        ``min``/``max`` are 0.0 when empty; after merging a
        snapshot that never tracked extrema they can be *unknown*
        despite a positive count, in which case the keys are omitted
        (keeping the snapshot finite and re-mergeable).
        """
        snap: dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
        }
        if self.count == 0:
            snap["min"] = 0.0
            snap["max"] = 0.0
        else:
            if self.min != _INF:
                snap["min"] = self.min
            if self.max != -_INF:
                snap["max"] = self.max
        if self.edges:
            snap["edges"] = list(self.edges)
            snap["bucket_counts"] = list(self.bucket_counts)
        return snap

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Missing ``min``/``max`` keys are treated as unknown and leave
        the running extrema untouched (snapshots that never tracked
        them); a zero-count snapshot is a no-op.
        """
        count = int(snap.get("count", 0))
        incoming_edges = tuple(float(e) for e in snap.get("edges", ()))
        if incoming_edges and self.edges and incoming_edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different bucket edges: "
                f"{self.edges} vs {incoming_edges}"
            )
        if count == 0:
            return
        self.count += count
        self.sum += float(snap.get("sum", 0.0))
        if "min" in snap:
            self.min = min(self.min, float(snap["min"]))
        if "max" in snap:
            self.max = max(self.max, float(snap["max"]))
        if incoming_edges:
            if not self.edges:
                self.edges = incoming_edges
                self.bucket_counts = [0] * (len(incoming_edges) + 1)
            for i, c in enumerate(snap.get("bucket_counts", ())):
                self.bucket_counts[i] += int(c)

    def labeled_buckets(self) -> dict[str, int]:
        """Bucket counts keyed by ``<=edge`` / ``>last`` labels."""
        return dict(zip(bucket_labels(self.edges), self.bucket_counts))


class MetricsRegistry:
    """Named instruments behind one lock, with snapshot/merge semantics.

    ``counter``/``gauge``/``histogram`` create-or-return instruments by
    name (a name is bound to one instrument kind for the registry's
    lifetime); ``inc``/``set_gauge``/``observe`` are one-shot
    conveniences for call sites that don't keep a handle.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access --------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_free(name, self._counters)
            return self._counters.setdefault(name, Counter(self._lock))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_free(name, self._gauges)
            return self._gauges.setdefault(name, Gauge(self._lock))

    def histogram(self, name: str, edges: Sequence[float] = ()) -> Histogram:
        with self._lock:
            self._check_free(name, self._histograms)
            existing = self._histograms.get(name)
            if existing is None:
                existing = self._histograms[name] = Histogram(self._lock, edges)
            elif edges and tuple(float(e) for e in edges) != existing.edges:
                raise ValueError(
                    f"histogram {name!r} already registered with edges "
                    f"{existing.edges}"
                )
            return existing

    def _check_free(self, name: str, own: dict[str, Any]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric name {name!r} already bound to another "
                    "instrument kind"
                )

    # -- one-shot conveniences ----------------------------------------------

    def inc(self, name: str, amount: int | float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: int | float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: int | float) -> None:
        self.histogram(name).observe(value)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of every instrument, taken atomically."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters add, histograms combine count/sum/min/max and
        bucket-wise counts, gauges take the incoming value.  Merging an
        empty (or partial) snapshot is a no-op for the missing parts,
        and instruments absent from this registry are created -- two
        registries always merge cleanly.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist_snap in snap.get("histograms", {}).items():
            hist = self.histogram(name, hist_snap.get("edges", ()))
            with self._lock:
                hist.merge_snapshot(hist_snap)
