"""The in-process block map: ordered maps over threads.

The fit's neighbor kernels and the §4.6 label scan share one pattern:
independent row blocks, each handed to a kernel that releases the GIL
(a ctypes ``CDLL`` call, or the scipy sparse product), whose outputs
are stitched in block order.  :func:`map_blocks` runs that pattern:

* results come back in **submission order**, so stitching is
  order-preserving by construction and any thread count reproduces the
  serial output byte for byte;
* fewer than two blocks, or one usable CPU, run inline: no thread is
  started;
* otherwise a :class:`~concurrent.futures.ThreadPoolExecutor` is created
  for the call and shut down before it returns, so no executor outlives
  a call (a forked child never inherits one).

The thread count is derived, not configured: :func:`thread_count` reads
the CPUs this process may run on, capped at :data:`MAX_THREADS`.
Every block reads shared inputs and allocates its own scratch, so the
kernels need no locks.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

__all__ = [
    "MAX_THREADS",
    "block_rows",
    "block_tasks",
    "map_blocks",
    "thread_count",
]

MAX_THREADS = 8
# the upper triangle front-loads the neighbor work (row i scores only
# j > i), so a thread needs several blocks for the tail to even out
BLOCKS_PER_THREAD = 8
# no block is cut smaller than this while the budget allows: a fit of
# ~2,000 points (a sample, a stream refit) stays one inline block
MIN_BLOCK_ROWS = 2048
MAX_BLOCK_ROWS = 8192


def thread_count() -> int:
    """Threads a block map may use: the CPUs this process may run on,
    capped at :data:`MAX_THREADS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_THREADS))


def block_tasks(n: int, block_size: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` row ranges of the block schedule, in order."""
    return [
        (start, min(start + block_size, n)) for start in range(0, n, block_size)
    ]


def block_rows(n: int, memory_budget: int) -> int:
    """Rows per neighbor-scoring block over ``n`` points.

    Enough blocks that each thread gets :data:`BLOCKS_PER_THREAD` of
    them, none under :data:`MIN_BLOCK_ROWS` or over
    :data:`MAX_BLOCK_ROWS` rows, and small enough that one block per
    thread fits ``memory_budget``: a block row's working set is about
    24 bytes per column (float32 intersections, float64 similarities,
    int64 unions, bool adjacency), 32 leaves headroom.  At least 16.
    """
    threads = thread_count()
    rows = max(-(-n // (threads * BLOCKS_PER_THREAD)), MIN_BLOCK_ROWS)
    budget_rows = memory_budget // max(threads * 32 * n, 1)
    return max(16, min(rows, MAX_BLOCK_ROWS, budget_rows))


def map_blocks(fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
    """``[fn(task) for task in tasks]``, on threads when that can pay.

    Inline for fewer than two tasks or one thread; otherwise on a
    per-call pool of ``min(thread_count(), len(tasks))`` threads.
    Results are in task order either way, and the first exception a
    task raises propagates.
    """
    tasks = list(tasks)
    # a one-block call (every served request) skips the affinity query
    threads = min(thread_count(), len(tasks)) if len(tasks) > 1 else 1
    if threads < 2:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))
