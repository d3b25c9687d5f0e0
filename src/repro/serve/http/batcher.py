"""Request coalescing: many concurrent single-point requests, one engine call.

:class:`~repro.serve.engine.AssignmentEngine.assign_batch` amortises
its fixed per-call cost (encoding, metrics, the kernel call) over a
whole batch, so a serving process wants concurrent ``POST /assign``
requests to share engine calls.  :class:`RequestBatcher` is that
coalescing point, and it has no task of its own:

* ``await submit(point)`` queues a point and returns its flush result;
  the queue is **bounded** -- a full queue raises :class:`QueueFull`,
  which the server maps to ``503 Retry-After`` (backpressure instead
  of unbounded memory growth);
* the submission that finds no batch forming becomes the **leader**:
  it yields one event-loop pass so requests that are already readable
  can submit (they follow: they only await their results), then takes
  everything queued and awaits the flush of each ``batch_max`` chunk
  itself.  No timer holds a lone point back, and a lone point costs
  one pass, not a hand-off to another task;
* flushes run one at a time, leaders in arrival order: a leader whose
  predecessor's flush is still in flight waits for it, and what queues
  meanwhile joins its batch -- under closed-loop load the batch size
  adapts to the concurrency automatically.

A leader cancelled before its flush hands the queue to a new leader
task; one cancelled mid-flush fails that chunk's waiters with
:class:`BatcherClosed` and hands on the rest, so no waiter hangs.
``batch_max=1`` degrades to one flush call per request (the
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
    """The batcher is draining or closed, so no new work is accepted;
    or the flush of a point's batch was cancelled with its leader."""


class RequestBatcher:
    """Coalesce single-point submissions into batched flush calls.

    Parameters
    ----------
    flush:
        ``async (points) -> results`` -- called with 1..batch_max
        points, must return one result per point, in order.  Raised
        exceptions propagate to every waiter of the batch.
    batch_max:
        Most points handed to one flush call.
    queue_depth:
        Bound on points admitted but not yet answered; beyond it
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
        # (point, future, submitted) in submission order, not yet taken
        self._queue: list[tuple[Any, asyncio.Future, float]] = []
        self._leading = False  # a leader will take self._queue
        self._flushing = asyncio.Lock()  # one flush at a time, FIFO
        self._idle = asyncio.Event()  # set while nothing is pending
        self._idle.set()
        self._handoffs: set[asyncio.Task] = set()
        self._pending = 0
        self._closing = False

    @property
    def pending(self) -> int:
        """Points admitted but not yet answered (queued or in flush)."""
        return self._pending

    async def submit(self, point: Any) -> Any:
        """Queue one point and return its flush result.

        Raises :class:`QueueFull` when ``queue_depth`` points are
        already pending, :class:`BatcherClosed` during shutdown, and
        the flush's exception when the point's batch fails.
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
        self._idle.clear()
        self._queue.append((point, future, time.perf_counter()))
        if not self._leading:
            self._leading = True
            await self._lead()
        return await future

    async def aclose(self) -> None:
        """Stop accepting; return once everything admitted is answered."""
        self._closing = True
        await self._idle.wait()

    # -- leader -------------------------------------------------------------

    async def _lead(self) -> None:
        """Let one loop pass of submissions join, then flush the queue."""
        batch = None
        try:
            await asyncio.sleep(0)  # one pass for readable requests
            async with self._flushing:
                batch, self._queue, self._leading = self._queue, [], False
                while batch:
                    chunk = batch[: self.batch_max]
                    batch = batch[self.batch_max :]
                    await self._dispatch(chunk)
        except asyncio.CancelledError:
            # the leading request went away; the points it led do not
            if batch is None:
                self._leading = False
            else:
                self._queue[:0] = batch
            if self._queue and not self._leading:
                self._leading = True
                task = asyncio.get_running_loop().create_task(self._lead())
                self._handoffs.add(task)
                task.add_done_callback(self._handoffs.discard)
            raise

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
            self._fail(batch, exc)
        except asyncio.CancelledError:
            self._fail(batch, BatcherClosed("the batch's flush was cancelled"))
            raise
        else:
            for (_, future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._pending -= len(batch)
            if not self._pending:
                self._idle.set()

    @staticmethod
    def _fail(
        batch: list[tuple[Any, asyncio.Future, float]], exc: BaseException
    ) -> None:
        for _, future, _ in batch:
            if not future.done():
                future.set_exception(exc)
