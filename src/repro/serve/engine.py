"""Batch assignment against a :class:`RockModel`, with serve metrics.

:class:`AssignmentEngine` labels whole batches through the model's
:class:`~repro.core.labeling.ClusterLabeler`, whose
:meth:`~repro.core.labeling.ClusterLabeler.assign_with_scores` picks the
scoring tier (:attr:`AssignmentIndex.tier`): ``native``, the
prefix-filtered ``assign_block`` kernel, wherever the C tier probed
clean; otherwise (no compiler, or ``REPRO_NATIVE=0``) ``dense``, the
matmul, or ``pruned``, the candidate gather in scipy/numpy, by the
index's posting share; and the scalar ``fallback`` for custom
similarities, which admit no index.  Each call records straight into a
shared :class:`~repro.obs.registry.MetricsRegistry`: ``serve.requests``
/ ``serve.points`` / ``serve.outliers`` / ``serve.assign.candidates``,
the ``serve.batch_size`` histogram over :data:`BATCH_SIZE_BUCKETS`, one
``serve.latency.assign_batch`` (or ``assign_fallback``) observation per
call, and one ``serve.assign.backend.<tier>`` gauge marking the active
tier.

Assignments are bit-for-bit identical to ``ClusterLabeler.assign`` --
the equivalence is property-tested for every tier.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence, Sized
from typing import Any

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.serve.model import RockModel

# every value engine.assign_backend can take; "fallback" marks the
# scalar custom-similarity path where no index exists at all
BACKEND_TIERS = ("dense", "pruned", "native", "fallback")

# upper edges of the serve.batch_size histogram; the last bucket is
# open-ended
BATCH_SIZE_BUCKETS = (1, 8, 64, 512, 4096)


class AssignmentEngine:
    """Batch assignment with metrics.

    Parameters
    ----------
    model:
        The servable artifact to assign against.
    registry:
        Shared metrics registry; a private one is created when omitted.
    """

    def __init__(
        self, model: RockModel, registry: MetricsRegistry | None = None
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.model = model
        self.registry = registry
        self.labeler = model.labeler()
        # builds the labeler's AssignmentIndex here, the engine's set-up;
        # None for custom similarities
        self.vectorized = self.labeler.assignment_index is not None
        self._requests = registry.counter("serve.requests")
        self._points = registry.counter("serve.points")
        self._outliers = registry.counter("serve.outliers")
        # point/representative pairs scored: the pruning at a glance
        self._candidates = registry.counter("serve.assign.candidates")
        self._batch_sizes = registry.histogram(
            "serve.batch_size", edges=BATCH_SIZE_BUCKETS
        )
        self._latency = registry.histogram(
            "serve.latency.assign_batch"
            if self.vectorized
            else "serve.latency.assign_fallback"
        )
        backend = self.assign_backend
        for tier in BACKEND_TIERS:
            registry.set_gauge(
                f"serve.assign.backend.{tier}", int(tier == backend)
            )

    @property
    def assign_backend(self) -> str:
        """The scoring tier: the index's (native / dense / pruned), or
        fallback."""
        return self.labeler.assign_backend

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def describe(self) -> dict[str, Any]:
        """Model facts an operator wants at a glance (``GET /model``)."""
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
        """Labels for a whole batch, in input order."""
        start = time.perf_counter()
        labels = self.labeler.assign_with_scores(points, counter=self._candidates)[0]
        elapsed = time.perf_counter() - start
        n = len(labels)
        self._requests.inc()
        self._points.inc(n)
        self._outliers.inc(int(np.count_nonzero(labels == -1)))
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
