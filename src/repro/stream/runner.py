"""The streaming session: label arrivals, refit periodically, republish.

:class:`StreamClusterer` turns the one-shot pipeline into
clustering-as-a-service over an unbounded record stream:

* every arrival lands in an :class:`~repro.stream.reservoir.OnlineReservoir`
  (Algorithm X, identical draws to the batch sampler), so a uniform
  sample of *everything seen so far* is always on hand;
* once a model exists, arrivals are labeled in batches against its
  labeling sets (the Section 4.6 disk scan, running forever), and the
  per-point outcomes feed a :class:`~repro.stream.drift.DriftDetector`;
* a refit fires on a fixed arrival interval, on a drift trigger, or at
  drain time -- either from scratch or *resuming* from the partition
  the current model induces on the reservoir (the
  ``initial_clusters`` seam of :meth:`RockPipeline.fit`);
* each refit republishes a versioned artifact via atomic
  write-then-:func:`os.replace`, so a :class:`ModelWatcher`-backed HTTP
  server hot-swaps to the new generation mid-stream without ever
  reading a torn file.

Everything is observable: ``stream.*`` counters/gauges/histograms in
the shared registry, one tracer span per refit, and a
:class:`StreamSummary` with the full :class:`RefitEvent` history.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.labeling import ClusterLabeler
from repro.core.pipeline import PipelineResult, RockPipeline
from repro.obs.trace import Tracer
from repro.serve.model import CHECKSUM_KEY, RockModel, artifact_digests, model_version
from repro.stream.drift import DriftDetector
from repro.stream.reservoir import OnlineReservoir

__all__ = [
    "RefitEvent",
    "StreamClusterer",
    "StreamSummary",
    "publish_model",
]

REFIT_MODES = ("resume", "scratch")


def publish_model(model: RockModel, path: str | Path) -> str:
    """Atomically (re)write a model artifact; returns its served version.

    Writes the checksummed payload to a sibling temp file and
    :func:`os.replace`-s it over ``path``, so a concurrently polling
    :class:`~repro.serve.http.reload.ModelWatcher` sees either the old
    artifact or the new one, never a partial write.  The returned
    version is :func:`~repro.serve.model.model_version`, which
    :func:`load_versioned_model` derives too, so publishers and servers
    agree on generation names.
    """
    path = Path(path)
    payload = model.to_dict()
    digest, version = artifact_digests(payload)
    payload[CHECKSUM_KEY] = "sha256:" + digest
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)
    return version


@dataclass(frozen=True)
class RefitEvent:
    """One refit + republish, as recorded in the session summary."""

    index: int                 # 1-based refit sequence number
    reason: str                # "warmup" / "interval" / "drift: ..." / "drain"
    arrivals_seen: int         # stream position when the refit fired
    sample_size: int           # reservoir points the fit consumed
    resumed: bool              # True when it resumed via initial_clusters
    version: str               # served version of the published artifact
    n_clusters: int
    fit_seconds: float
    publish_seconds: float
    unix_time: float           # wall clock, display only


@dataclass
class StreamSummary:
    """What one :meth:`StreamClusterer.process` call did."""

    arrivals: int = 0
    labeled: int = 0
    outliers: int = 0
    label_seconds: float = 0.0
    refits: list[RefitEvent] = field(default_factory=list)
    drained: bool = False

    @property
    def final_version(self) -> str | None:
        return self.refits[-1].version if self.refits else None

    def labels_per_second(self) -> float:
        return self.labeled / self.label_seconds if self.label_seconds > 0 else 0.0


class StreamClusterer:
    """Incremental ROCK over an unbounded stream of records.

    Arrivals are labeled in batches through the model labeler's
    :class:`~repro.serve.index.AssignmentIndex`, rebuilt once per refit,
    on the tier that index picks.

    Parameters
    ----------
    pipeline:
        The fit configuration.  Refits run over the reservoir sample,
        so the pipeline's own ``sample_size`` is normally ``None`` (the
        reservoir *is* the Section 4.6 sample).
    reservoir_size:
        Capacity of the online reservoir.
    publish_to:
        Artifact path each refit atomically republishes to; ``None``
        keeps models in-process only.
    warmup:
        Arrivals to accumulate before the first fit (default: the
        reservoir capacity).  A drain with no model yet still fits once
        so a session always ends with a model.
    refit_every:
        Refit after this many arrivals since the last fit (``None``
        disables interval refits).
    drift:
        A configured :class:`DriftDetector`; threshold crossings
        trigger refits between intervals.  ``None`` disables drift
        refits.
    refit_mode:
        ``"resume"`` starts each refit's merge loop from the partition
        the current model induces on the reservoir (via
        ``initial_clusters``); ``"scratch"`` refits from singletons.
    batch_size:
        Arrivals labeled per vectorised batch.
    seed:
        Reservoir rng seed (the pipeline's own seed governs the fits).
    tracer:
        Spans + metrics sink; refits record ``stream.refit`` spans and
        the ``stream.*`` counter family lands in ``tracer.registry``.
    on_batch:
        Callback ``(points, labels, scores, version)`` after each
        labeled batch -- the test/benchmark observation hook.
    on_refit:
        Callback ``(RefitEvent)`` after each republish.
    """

    def __init__(
        self,
        pipeline: RockPipeline,
        reservoir_size: int,
        publish_to: str | Path | None = None,
        warmup: int | None = None,
        refit_every: int | None = None,
        drift: DriftDetector | None = None,
        refit_mode: str = "resume",
        batch_size: int = 256,
        seed: int | None = None,
        tracer: Tracer | None = None,
        on_batch: Callable[[list[Any], np.ndarray, np.ndarray, str], None] | None = None,
        on_refit: Callable[[RefitEvent], None] | None = None,
    ) -> None:
        if refit_mode not in REFIT_MODES:
            raise ValueError(
                f"refit_mode must be one of {REFIT_MODES}, got {refit_mode!r}"
            )
        if refit_every is not None and refit_every < 1:
            raise ValueError("refit_every must be positive when given")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.pipeline = pipeline
        self.reservoir: OnlineReservoir[Any] = OnlineReservoir(
            reservoir_size, rng=seed
        )
        self.publish_to = None if publish_to is None else Path(publish_to)
        self.warmup = reservoir_size if warmup is None else warmup
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1")
        self.refit_every = refit_every
        self.drift = drift
        self.refit_mode = refit_mode
        self.batch_size = batch_size
        self.tracer = tracer if tracer is not None else Tracer()
        self.on_batch = on_batch
        self.on_refit = on_refit

        registry = self.tracer.registry
        self._arrivals = registry.counter("stream.arrivals")
        self._labeled = registry.counter("stream.labeled")
        self._outliers = registry.counter("stream.outliers")
        self._refits = registry.counter("stream.refits")
        self._fit_hist = registry.histogram("stream.refit.fit_seconds")
        self._publish_hist = registry.histogram("stream.refit.publish_seconds")
        self._candidates = registry.counter("serve.assign.candidates")
        self._registry = registry

        self.model: RockModel | None = None
        self.version: str | None = None
        self.last_result: PipelineResult | None = None
        self._labeler: ClusterLabeler | None = None
        self._arrivals_at_last_fit = 0
        self._refit_count = 0
        self._drain = threading.Event()

    # -- control ------------------------------------------------------------

    def request_drain(self) -> None:
        """Ask :meth:`process` to stop consuming after the current batch.

        Thread-safe; the signal-handler hook for ``python -m repro
        stream``.  The drain still runs a final refit + republish when
        arrivals came in since the last one (or no model exists yet).
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    @property
    def _assign_backend(self) -> str | None:
        """The tier labeling runs on; ``None`` before the first model."""
        return None if self._labeler is None else self._labeler.assign_backend

    # -- the session --------------------------------------------------------

    def process(self, records: Iterable[Any]) -> StreamSummary:
        """Consume a stream (until exhaustion or drain); returns the summary.

        May be called repeatedly -- the reservoir, model, and drift
        window persist across calls, so a session can span several
        sources.  Each call returns a fresh summary of its own
        arrivals.
        """
        summary = StreamSummary()
        stream: Iterator[Any] = iter(records)
        while not self._drain.is_set():
            batch = list(islice(stream, self.batch_size))
            if not batch:
                break
            self.reservoir.extend(batch)
            self._arrivals.inc(len(batch))
            summary.arrivals += len(batch)
            self._registry.set_gauge("stream.reservoir.seen", self.reservoir.seen)

            trigger: str | None = None
            if self.model is not None:
                started = time.monotonic()
                labels, scores = self._label_batch(batch)
                elapsed = time.monotonic() - started
                summary.labeled += len(batch)
                summary.label_seconds += elapsed
                summary.outliers += int((labels < 0).sum())
                self._labeled.inc(len(batch))
                self._outliers.inc(int((labels < 0).sum()))
                if self.on_batch is not None:
                    self.on_batch(batch, labels, scores, self.version or "")
                if self.drift is not None:
                    trigger = self.drift.observe(labels.tolist(), scores.tolist())
                    if trigger is not None:
                        trigger = f"drift: {trigger}"

            if self.model is None:
                if self.reservoir.seen >= self.warmup:
                    self._refit("warmup", summary)
            elif trigger is not None:
                self._refit(trigger, summary)
            elif (
                self.refit_every is not None
                and self.reservoir.seen - self._arrivals_at_last_fit
                >= self.refit_every
            ):
                self._refit("interval", summary)

        if self._drain.is_set():
            summary.drained = True
        # a session always ends on a fresh model: fit at drain/exhaustion
        # when arrivals came in since the last fit (or none happened yet)
        if len(self.reservoir) > 0 and (
            self.model is None
            or self.reservoir.seen > self._arrivals_at_last_fit
        ):
            self._refit("drain", summary)
        return summary

    # -- internals ----------------------------------------------------------

    def _label_batch(self, batch: list[Any]) -> tuple[np.ndarray, np.ndarray]:
        """Label one batch against the current model: ``(labels, best scores)``."""
        assert self._labeler is not None
        return self._labeler.assign_with_scores(batch, counter=self._candidates)

    def _starting_partition(self, sample: list[Any]) -> list[list[int]] | None:
        """The partition the current model induces on the reservoir sample.

        Outliers (label -1) are left uncovered -- the pipeline's mapping
        turns them into singletons -- so a resume never glues unrelated
        points together just because both were unassignable.
        """
        if self.refit_mode != "resume" or self._labeler is None:
            return None
        labels, _ = self._label_batch(sample)
        groups: dict[int, list[int]] = {}
        for position, label in enumerate(labels):
            if label >= 0:
                groups.setdefault(int(label), []).append(position)
        partition = [members for _, members in sorted(groups.items())]
        return partition if partition else None

    def _refit(self, reason: str, summary: StreamSummary) -> None:
        sample, _indices = self.reservoir.sample()
        initial = self._starting_partition(sample)
        with self.tracer.span(
            "stream.refit",
            reason=reason,
            sample_size=len(sample),
            resumed=initial is not None,
        ):
            fit_started = time.monotonic()
            result = self.pipeline.fit(
                sample, tracer=self.tracer, initial_clusters=initial
            )
            model = self.pipeline.to_model(result, sample)
            fit_seconds = time.monotonic() - fit_started

            publish_started = time.monotonic()
            if self.publish_to is not None:
                version = publish_model(model, self.publish_to)
            else:
                version = model_version(model.to_dict())
            publish_seconds = time.monotonic() - publish_started

        self.model = model
        self.version = version
        self.last_result = result
        self._labeler = model.labeler()
        # one index build per refit, reused by every labeled batch (and
        # the next refit's resume partition) until the model changes
        self._labeler.assignment_index
        self._arrivals_at_last_fit = self.reservoir.seen
        self._refit_count += 1
        self._refits.inc()
        self._fit_hist.observe(fit_seconds)
        self._publish_hist.observe(publish_seconds)
        self._registry.set_gauge("stream.model.n_clusters", model.n_clusters)
        if self.drift is not None:
            self.drift.reset()
        event = RefitEvent(
            index=self._refit_count,
            reason=reason,
            arrivals_seen=self.reservoir.seen,
            sample_size=len(sample),
            resumed=initial is not None,
            version=version,
            n_clusters=model.n_clusters,
            fit_seconds=fit_seconds,
            publish_seconds=publish_seconds,
            unix_time=time.time(),
        )
        summary.refits.append(event)
        if self.on_refit is not None:
            self.on_refit(event)
