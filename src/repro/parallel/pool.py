"""The chunked-execution layer: ordered maps over a one-time-init pool.

The fit-side kernels (:mod:`repro.parallel.links`,
:mod:`repro.native.links`) share one pattern:

* a *payload* too big to ship per task (an encoded indicator matrix)
  travels **once per worker** through the pool initializer and lands
  in a module global;
* tasks are small descriptors (row ranges) mapped with ``imap``, which
  yields results in **submission order** -- merges are
  order-preserving by construction, never completion-order, so any
  worker count reproduces the serial output byte for byte;
* ``workers <= 1`` short-circuits to an in-process loop (the
  initializer runs locally), so small inputs never pay process startup.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Iterator
from typing import Any

__all__ = [
    "block_tasks",
    "default_workers",
    "imap_chunked",
    "resolve_workers",
    "worker_block_size",
]


def default_workers() -> int:
    """A sane worker count: the CPU count, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def resolve_workers(workers: int | str | None) -> int:
    """Normalise a ``workers`` argument to a concrete process count.

    ``None`` means serial (1); ``"auto"`` resolves to
    :func:`default_workers`; an integer is validated and passed through.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers == "auto":
            return default_workers()
        raise ValueError(f"workers must be a positive int, 'auto' or None, got {workers!r}")
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    return count


def block_tasks(n: int, block_size: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` row ranges of the block schedule, in order."""
    return [
        (start, min(start + block_size, n)) for start in range(0, n, block_size)
    ]


def worker_block_size(n: int, workers: int, memory_budget: int) -> int:
    """Rows per block so ``workers`` concurrent blocks fit the budget.

    A block row's working set is about 24 bytes per column (float32
    intersections, float64 similarities, int64 unions, bool adjacency);
    32 leaves headroom for temporaries.  Clamped to [16, 8192].
    """
    per_worker = max(memory_budget // max(workers, 1), 1)
    return max(16, min(int(per_worker // max(32 * n, 1)), 8192, max(n, 16)))


def imap_chunked(
    task_fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    *,
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> Iterator[Any]:
    """Yield ``task_fn(task)`` for every task, in submission order.

    With ``workers > 1`` tasks run on a :class:`multiprocessing.Pool`
    whose per-worker state is built once by ``initializer(*initargs)``;
    with ``workers <= 1`` the initializer runs in-process and tasks are
    mapped inline -- identical results either way.
    """
    if workers <= 1:
        if initializer is not None:
            initializer(*initargs)
        for task in tasks:
            yield task_fn(task)
        return
    with multiprocessing.Pool(
        processes=workers, initializer=initializer, initargs=initargs
    ) as pool:
        yield from pool.imap(task_fn, tasks)

