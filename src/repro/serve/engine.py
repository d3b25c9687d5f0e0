"""High-throughput batch assignment against a :class:`RockModel`.

The per-point :class:`~repro.core.labeling.ClusterLabeler` pays Python
overhead for every point: one encode, one matrix-vector product, one
argmax.  :class:`AssignmentEngine` amortises that over whole batches --
each block is encoded once and scored through the
:class:`~repro.serve.index.AssignmentIndex` built at engine
construction -- and adds:

* an LRU cache keyed on the point's item set, so duplicate and repeated
  points (ubiquitous in categorical data, where the value space is
  small) skip scoring entirely;
* the scoring tier its index picks (:attr:`AssignmentIndex.tier`):
  ``native``, the prefix-filtered ``assign_block`` kernel, wherever the
  C tier probed clean; otherwise (no compiler, or ``REPRO_NATIVE=0``)
  ``dense``, the matmul, or ``pruned``, the candidate gather in
  scipy/numpy, by the index's posting share;
* the scalar ``fallback`` for custom similarities, which admit no
  index: :meth:`ClusterLabeler.assign_with_scores` scores per point;
* metrics recorded straight into a shared
  :class:`~repro.obs.registry.MetricsRegistry`: ``serve.requests`` /
  ``serve.points`` / ``serve.outliers``,
  ``serve.cache.{hits,misses,uncacheable}``, the ``serve.batch_size``
  histogram over :data:`BATCH_SIZE_BUCKETS`, one
  ``serve.latency.assign_batch`` (or ``assign_fallback``) observation
  per call, and one ``serve.assign.backend.<tier>`` gauge marking the
  active tier.

Assignments are bit-for-bit identical to ``ClusterLabeler.assign`` --
the equivalence is property-tested for every tier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence, Sized
from typing import Any

import numpy as np

from repro.core.encoding import as_item_set
from repro.obs.registry import MetricsRegistry
from repro.serve.index import AssignmentIndex
from repro.serve.model import RockModel

# every value engine.assign_backend can take; "fallback" marks the
# scalar custom-similarity path where no index exists at all
BACKEND_TIERS = ("dense", "pruned", "native", "fallback")

# upper edges of the serve.batch_size histogram; the last bucket is
# open-ended
BATCH_SIZE_BUCKETS = (1, 8, 64, 512, 4096)


class AssignmentEngine:
    """Vectorised batch assignment with caching and metrics.

    Parameters
    ----------
    model:
        The servable artifact to assign against.
    cache_size:
        Maximum number of distinct points remembered by the LRU cache;
        0 disables caching.
    registry:
        Shared metrics registry; a private one is created when omitted.
    block_size:
        Rows per scoring block, bounding peak memory for huge batches.
    """

    def __init__(
        self,
        model: RockModel,
        cache_size: int = 4096,
        registry: MetricsRegistry | None = None,
        block_size: int = 8192,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if registry is None:
            registry = MetricsRegistry()
        self.model = model
        self.registry = registry
        self.block_size = block_size
        self._labeler = model.labeler()
        # the labeler's own index, built here (the engine's set-up);
        # None for custom similarities
        self._fast_index = self._labeler.assignment_index
        self._requests = registry.counter("serve.requests")
        self._points = registry.counter("serve.points")
        self._outliers = registry.counter("serve.outliers")
        self._cache_hits = registry.counter("serve.cache.hits")
        self._cache_misses = registry.counter("serve.cache.misses")
        self._uncacheable = registry.counter("serve.cache.uncacheable")
        self._batch_sizes = registry.histogram(
            "serve.batch_size", edges=BATCH_SIZE_BUCKETS
        )
        self._latency = registry.histogram(
            "serve.latency.assign_batch"
            if self._fast_index is not None
            else "serve.latency.assign_fallback"
        )
        # candidate pairs the index tiers score: the pruning at a glance
        self._candidates = (
            registry.counter("serve.assign.candidates")
            if self._fast_index is not None
            else None
        )
        backend = self.assign_backend
        for tier in BACKEND_TIERS:
            registry.set_gauge(
                f"serve.assign.backend.{tier}", int(tier == backend)
            )
        self._cache: OrderedDict[Any, int] = OrderedDict()
        self._cache_size = cache_size
        # the async HTTP server shares one engine between the event
        # loop's executor threads and direct assign_batch callers, so
        # the LRU's read-reorder and eviction must be atomic
        self._cache_lock = threading.Lock()

    @property
    def vectorized(self) -> bool:
        """Whether the batched index path is active (vs the scalar fallback)."""
        return self._fast_index is not None

    @property
    def assign_backend(self) -> str:
        """The scoring tier: the index's (native / dense / pruned), or
        fallback."""
        if self._fast_index is None:
            return "fallback"
        return self._fast_index.tier

    @property
    def fast_index(self) -> AssignmentIndex | None:
        """The inverted index (``None`` on the fallback tier)."""
        return self._fast_index

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def describe(self) -> dict[str, Any]:
        """Model facts an operator wants at a glance (``/model`` and
        :meth:`ClusteringService.describe`)."""
        model = self.model
        return {
            "n_clusters": model.n_clusters,
            "theta": model.theta,
            "f_theta": model.f_theta,
            "labeling_set_sizes": [len(li) for li in model.labeling_sets],
            "cluster_sizes": model.cluster_sizes,
            "vectorized": self.vectorized,
            "assign_backend": self.assign_backend,
            "metadata": dict(model.metadata),
        }

    def assign(self, point: Any) -> int:
        """Cluster index for one point, -1 for an outlier."""
        return int(self.assign_batch([point])[0])

    def assign_batch(self, points: Sequence[Any]) -> np.ndarray:
        """Labels for a whole batch, in input order.

        Cache lookups run first; each distinct *keyable* point is
        scored at most once per batch, regardless of how often it
        repeats -- including when ``cache_size=0``, where hashable
        points still dedupe within the batch but bypass the LRU.
        Points that never reach the cache (unhashable, or caching
        disabled) are counted as ``serve.cache.uncacheable`` per
        occurrence, not as cache misses, so the hit rate reflects real
        LRU lookups only.
        """
        start = time.perf_counter()
        points = list(points)
        n = len(points)
        cached = self._cache_size > 0
        labels = np.empty(n, dtype=np.int64)
        hits = uncacheable = 0
        to_score: list[Any] = []
        first: dict[Any, int] = {}  # key -> its row in to_score
        positions: list[int] = []  # points to score, and their rows
        rows: list[int] = []
        # one lock round for the whole batch's lookups
        with self._cache_lock:
            for i, point in enumerate(points):
                key = self._cache_key(point)
                if key is None:
                    uncacheable += 1
                    positions.append(i)
                    rows.append(len(to_score))
                    to_score.append(point)
                    continue
                if cached:
                    label = self._cache.get(key)
                    if label is not None:
                        self._cache.move_to_end(key)
                        labels[i] = label
                        hits += 1
                        continue
                else:
                    uncacheable += 1
                row = first.get(key)
                if row is None:
                    row = first[key] = len(to_score)
                    to_score.append(point)
                positions.append(i)
                rows.append(row)
        misses = len(first) if cached else 0
        if to_score:
            scored = self._assign_uncached(to_score)
            labels[positions] = scored[rows]
            if cached:
                self._cache_put(first, scored.tolist())
        elapsed = time.perf_counter() - start
        self._requests.inc()
        self._points.inc(n)
        self._outliers.inc(int(np.count_nonzero(labels == -1)))
        self._cache_hits.inc(hits)
        self._cache_misses.inc(misses)
        self._uncacheable.inc(uncacheable)
        self._batch_sizes.observe(n)
        self._latency.observe(elapsed)
        return labels

    def assign_iter(
        self, points: Iterable[Any], batch_size: int = 1024
    ) -> Iterator[int]:
        """Stream labels for an iterable, batching internally.

        Yields one ``int`` label per input point, in order -- the §4.6
        disk scan without materialising the data set.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        batch: list[Any] = []
        for point in points:
            batch.append(point)
            if len(batch) >= batch_size:
                yield from map(int, self.assign_batch(batch))
                batch = []
        if batch:
            yield from map(int, self.assign_batch(batch))

    def assign_all(self, points: Iterable[Any], batch_size: int = 1024) -> np.ndarray:
        """Labels for an iterable as one array (batched internally).

        A sized input pre-sizes the output array (``np.fromiter`` with
        ``count=``), so a disk-scale labeled scan never pays the
        doubling-reallocation churn of growing the result.
        """
        labels = self.assign_iter(points, batch_size=batch_size)
        if isinstance(points, Sized):
            return np.fromiter(labels, dtype=np.int64, count=len(points))
        return np.fromiter(labels, dtype=np.int64)

    # -- internals ----------------------------------------------------------

    def _assign_uncached(self, points: list[Any]) -> np.ndarray:
        if self._fast_index is None:
            return self._labeler.assign_with_scores(points)[0]
        return self._fast_index.assign(
            points, block_size=self.block_size, counter=self._candidates
        )

    def _cache_key(self, point: Any) -> Any | None:
        try:
            return as_item_set(point)
        except TypeError:
            pass
        try:
            hash(point)
        except TypeError:
            return None
        return point

    def _cache_put(self, rows: dict[Any, int], scored: list[int]) -> None:
        """Remember each key's label (``scored[row]``), evicting LRU-first."""
        with self._cache_lock:
            for key, row in rows.items():
                self._cache[key] = scored[row]
                self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
