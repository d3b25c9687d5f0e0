"""Request coalescing: many concurrent single-point requests, one matmul.

:class:`~repro.serve.engine.AssignmentEngine.assign_batch` amortises
its fixed per-call cost (executor hop, metrics, the matmul setup) over
a whole batch, so a serving process wants concurrent ``POST /assign``
requests to share engine calls.  :class:`RequestBatcher` is that
coalescing point:

* :meth:`submit` enqueues a point and returns a future for its result;
  the queue is **bounded** -- a full queue raises :class:`QueueFull`,
  which the server maps to ``503 Retry-After`` (backpressure instead
  of unbounded memory growth);
* one flusher task dispatches on idle: it wakes on the first queued
  point, drains what is queued (up to ``batch_max``), and yields one
  event-loop pass so requests that are already readable can submit;
  it hands the batch to the ``flush`` coroutine as soon as a pass adds
  nothing.  No timer holds a lone point back;
* while a flush is in flight new submissions pile up in the queue and
  form the next batch -- under closed-loop load the batch size adapts
  to the concurrency automatically.

``batch_max=1`` degrades to one engine call per request (the
no-batching baseline the benchmark compares against).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable, Sequence
from typing import Any

from repro.obs.registry import MetricsRegistry

__all__ = ["BatcherClosed", "QueueFull", "RequestBatcher"]

# upper edges for the coalesced-batch-size histogram
BATCH_SIZE_EDGES = (1, 2, 4, 8, 16, 32, 64, 256)
# upper edges for the submit-to-dispatch wait, in seconds
QUEUE_WAIT_EDGES = (0.0001, 0.0005, 0.001, 0.002, 0.005, 0.02, 0.1)


class QueueFull(RuntimeError):
    """The bounded submission queue is at capacity -- shed load."""


class BatcherClosed(RuntimeError):
    """The batcher is draining or closed; no new work is accepted."""


class RequestBatcher:
    """Coalesce single-point submissions into batched flush calls.

    Parameters
    ----------
    flush:
        ``async (points) -> results`` -- called with 1..batch_max
        points, must return one result per point, in order.  Raised
        exceptions propagate to every future of the batch.
    batch_max:
        Most points handed to one flush call.
    queue_depth:
        Bound on points admitted but not yet flushed; beyond it
        :meth:`submit` raises :class:`QueueFull`.
    registry:
        Optional metrics sink; records ``http.batcher.flushes``,
        ``http.batcher.rejected``, the ``http.batcher.batch_size``
        histogram and, per point, the submit-to-dispatch
        ``http.batcher.queue_wait_seconds`` histogram.
    """

    def __init__(
        self,
        flush: Callable[[list[Any]], Awaitable[Sequence[Any]]],
        batch_max: int = 64,
        queue_depth: int = 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self._flush = flush
        self.batch_max = batch_max
        self.queue_depth = queue_depth
        registry = registry if registry is not None else MetricsRegistry()
        self._flushes = registry.counter("http.batcher.flushes")
        self._rejected = registry.counter("http.batcher.rejected")
        self._sizes = registry.histogram(
            "http.batcher.batch_size", edges=BATCH_SIZE_EDGES
        )
        self._queue_wait = registry.histogram(
            "http.batcher.queue_wait_seconds", edges=QUEUE_WAIT_EDGES
        )
        self._queue: asyncio.Queue[tuple[Any, asyncio.Future, float] | None] = (
            asyncio.Queue()
        )
        self._pending = 0
        self._closing = False
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Spawn the flusher task on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def pending(self) -> int:
        """Points admitted but not yet answered (queued or in flush)."""
        return self._pending

    def submit(self, point: Any) -> asyncio.Future:
        """Enqueue one point; resolves to its flush result.

        Raises :class:`QueueFull` when ``queue_depth`` points are
        already pending, :class:`BatcherClosed` during shutdown.
        """
        if self._closing:
            raise BatcherClosed("batcher is shutting down")
        if self._pending >= self.queue_depth:
            self._rejected.inc()
            raise QueueFull(
                f"assignment queue at capacity ({self.queue_depth} pending)"
            )
        future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self._queue.put_nowait((point, future, time.perf_counter()))
        return future

    async def aclose(self) -> None:
        """Stop accepting, flush everything already admitted, stop."""
        if self._closing:
            return
        self._closing = True
        if self._task is not None:
            self._queue.put_nowait(None)
            await self._task
            self._task = None

    # -- flusher ------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            while len(batch) < self.batch_max:
                if self._queue.empty():
                    await asyncio.sleep(0)  # one pass for readable requests
                    if self._queue.empty():
                        break
                item = self._queue.get_nowait()
                if item is None:
                    await self._dispatch(batch)
                    return
                batch.append(item)
            await self._dispatch(batch)

    async def _dispatch(
        self, batch: list[tuple[Any, asyncio.Future, float]]
    ) -> None:
        self._flushes.inc()
        self._sizes.observe(len(batch))
        now = time.perf_counter()
        for _, _, submitted in batch:
            self._queue_wait.observe(now - submitted)
        try:
            results = await self._flush([point for point, _, _ in batch])
        except Exception as exc:  # propagate to every waiter, keep serving
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (_, future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._pending -= len(batch)
