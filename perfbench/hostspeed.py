"""Timings expressed at a reference host speed.

The benchmark runs on a shared host whose speed drifts by tens of
percent within a minute: a fixed int32 matrix product or a fixed
pure-Python loop takes 0.93x to 1.25x its usual time for seconds at a
stretch, and the program's own kernels follow the same swings.  Ten
runs of the same code, each at another moment, then spread by more than
any bound a regression check can use.

So every timed operation runs between two *probes*, each a fixed
amount of work that does not touch the program: an int32 matrix
product (the kind of NumPy loop the neighbor kernels run) and a
pure-Python loop (the kind the labeling and serving code runs).  A
probe reads the geometric mean of the two medians of three repetitions.
A long operation is cut into segments by further probes at
*checkpoints*: the benchmark's wrappers around the program's calls
(``checkpointing``) take one when a second has passed since the last.
Each segment's wall time is scaled by ``REFERENCE_MS`` over the
geometric mean of the probes that bound it, and an operation's
normalised time is the sum over its segments: the time it would have
taken on a host where the probe reads ``REFERENCE_MS``.  Probes run in
the benchmark's thread between calls into the program, so the
program's own threads or processes never compete with them, and their
time is never counted in an operation.

Wall-clock figures are printed next to every normalised one.
"""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

clock = time.perf_counter

# the probe's usual reading on an unloaded two-vCPU Xeon host, so that
# normalised figures read close to wall time there; any constant would
# do, since comparisons only ever divide one normalised figure by another
REFERENCE_MS = 18.0
PROBE_REPS = 3
MATRIX_ROWS = 256
MATRIX_ITEMS = 400
LOOP_ITERATIONS = 100_000
CHECKPOINT_S = 1.0


class HostSpeed:
    """Probes the host's speed and scales operation times by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = (rng.random((MATRIX_ROWS, MATRIX_ITEMS)) < 0.03).astype(np.int32)
        self.readings_ms: list[float] = []
        self.probe_s = 0.0  # time spent probing, to take out of enclosing timings
        self._last: float | None = None
        # segments of the operation being timed, None between operations
        self._segments: list[tuple[float, float]] | None = None
        self._checkpoints = True
        self._mark = 0.0

    def _matrix_product(self) -> None:
        self._matrix @ self._matrix.T

    @staticmethod
    def _python_loop() -> None:
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7

    def probe(self) -> float:
        """One probe reading in ms (see the module docstring)."""
        started = clock()
        medians = []
        for work in (self._matrix_product, self._python_loop):
            times = []
            for _ in range(PROBE_REPS):
                t0 = clock()
                work()
                times.append(clock() - t0)
            medians.append(statistics.median(times) * 1000.0)
        reading = math.sqrt(medians[0] * medians[1])
        self.readings_ms.append(reading)
        self._last = reading
        self.probe_s += clock() - started
        return reading

    def timed(
        self, op: Callable[[], Any], checkpoints: bool = True
    ) -> tuple[float, float, Any]:
        """Run ``op`` between two probes: ``(wall s, normalised s, outcome)``.

        The probe after one operation is the probe before the next, so
        back-to-back operations cost one probe each.  With
        ``checkpoints=False`` the operation is one segment whatever the
        wrappers ask for, so no probe runs inside it.
        """
        if self._last is None:
            self.probe()
        self._segments = []
        self._checkpoints = checkpoints
        self._mark = clock()
        try:
            outcome = op()
        finally:
            self._close_segment()
            segments, self._segments = self._segments, None
        return sum(w for w, _ in segments), sum(n for _, n in segments), outcome

    def checkpoint(self) -> tuple[float, float]:
        """Inside :meth:`timed`, end the current segment with a probe.

        Returns the segment's ``(wall s, normalised s)``; outside an
        operation, or inside one timed without checkpoints, it does
        nothing and returns ``(0.0, 0.0)``.
        """
        if self._segments is None or not self._checkpoints:
            return 0.0, 0.0
        return self._close_segment()

    def _close_segment(self) -> tuple[float, float]:
        wall = clock() - self._mark
        before = self._last
        segment = (wall, normalise(wall, (before, self.probe())))
        self._segments.append(segment)
        self._mark = clock()
        return segment

    def checkpointing(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a checkpoint before any call that comes
        ``CHECKPOINT_S`` or more after the last one."""
        def call(*args: Any, **kwargs: Any) -> Any:
            if clock() - self._mark >= CHECKPOINT_S:
                self.checkpoint()
            return fn(*args, **kwargs)
        return call

    def summary(self) -> dict[str, Any]:
        """The probe readings of the run, for the provenance."""
        readings = self.readings_ms or [self.probe()]
        return {
            "probe_median_ms": statistics.median(readings),
            "probe_min_ms": min(readings),
            "probe_max_ms": max(readings),
            "probes": len(readings),
            "reference_ms": REFERENCE_MS,
            "readings_ms": [round(r, 3) for r in readings],
        }


def normalise(wall: float, readings_ms: Sequence[float]) -> float:
    """``wall`` scaled to the reference speed by the geometric mean of
    the probe readings taken around (and during) it."""
    mean = math.exp(statistics.fmean(math.log(r) for r in readings_ms))
    return wall * REFERENCE_MS / mean


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far (zeros where /proc is missing)."""
    try:
        first = Path("/proc/stat").read_text().split("\n", 1)[0]
        fields = [int(v) for v in first.split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    """The share of the CPU time between two :func:`cpu_ticks` readings that
    the hypervisor gave to other guests (0 when no time passed)."""
    steal, total = end[0] - start[0], end[1] - start[1]
    return steal / total if total > 0 else 0.0
