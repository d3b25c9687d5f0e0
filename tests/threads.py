"""Forcing the block map's thread count in tests.

:func:`repro.parallel.pool.thread_count` derives the count from the
CPUs the process may run on, and nothing configures it, so a test
replaces the function: a one-CPU host still runs the threaded
schedule, and a many-CPU host the inline one.  Calls must run inside
the block.
"""

import contextlib

import pytest

import repro.parallel.pool as pool

# inline, the smallest threaded map, and an odd count
THREAD_COUNTS = [1, 2, 3]


@contextlib.contextmanager
def forced_threads(count):
    """Run the block with :func:`~repro.parallel.pool.thread_count`
    returning ``count``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "thread_count", lambda: count)
        yield
