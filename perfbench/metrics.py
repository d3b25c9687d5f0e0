"""Metric names and units come from ``BENCHMARK.json``; this module adds
only what that file does not say: which end-to-end metric each per-layer
metric should move.

Every workload reports every end-to-end metric, so each is defined for
all four workloads (see ``perfbench/README.md`` for the mapping):

* ``latency_p50_ms`` -- median time of the workload's unit of work: one
  ``RockPipeline.fit`` (fit-full, paper-basket), one single-point
  ``/assign`` at 200 req/s timed from its due time (serve-assign), one
  refit from trigger to published artifact, timed around
  ``StreamClusterer._refit`` by the benchmark (stream-drift);
* ``throughput_per_s`` -- points fitted per second of fit wall time,
  points answered per second by ``/assign_batch`` with both connections
  saturated, or stream arrivals per wall-clock second;
* ``peak_rss_mb`` -- high-water RSS of the process doing the work (the
  server process for serve-assign);
* ``ari`` -- adjusted Rand index of the program's labels against the
  generator's truth;
* ``setup_s`` -- median of several set-ups (inputs, native probe, model
  fit and server start where the workload has them).

Every timing above except serve-assign's ``/assign`` latency is
expressed at a reference host speed (``perfbench/hostspeed.py``); the
printout gives the wall-clock values next to them.

Tail latencies (the highest percentile with ten samples beyond it) are
printed with the details of every run but are not end-to-end metrics:
on a shared two-core host the ``/assign`` p99 moves by more than the
largest allowed bound from run to run, so it cannot gate a change.

Per-layer metrics come from the traced run; a layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC.read_text())


def units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in file order."""
    return {m["name"]: m["unit"] for m in load_spec()[section]}


# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "core.sampling.s": "latency_p50_ms on paper-basket (negligible)",
    "core.neighbors.s": "latency_p50_ms on fit-full; refit latency on stream-drift",
    "core.neighbors.edges": "work count behind core.neighbors.s",
    "core.neighbors.rss_delta_mb": "peak_rss_mb on fit-full",
    "core.links.s": "latency_p50_ms on fit-full",
    "core.links.pairs": "work count behind core.links.s",
    "core.merge.s": "latency_p50_ms on paper-basket and stream-drift",
    "core.merge.merges": "work count behind core.merge.s",
    "core.merge.heap_ops": "work count behind core.merge.s",
    "core.merge.components": "work count behind core.merge.s",
    "core.labeling.s": "latency_p50_ms on paper-basket (dominant); none on fit-full",
    "core.labeling.points": "work count behind core.labeling.s",
    "core.labeling.points_per_s": "throughput_per_s on paper-basket",
    "serve.model.to_model_s": "setup_s on serve-assign; refit latency on stream-drift",
    "serve.model.save_s": "setup_s on serve-assign",
    "serve.model.load_s": "setup_s on serve-assign",
    "serve.model.bytes": "serve.model.save_s / load_s",
    "serve.engine.s": "batch latency on serve-assign (barely assign p50)",
    "serve.engine.calls": "work count behind serve.engine.s",
    "serve.engine.points_per_call": "batching achieved by serve.engine",
    "serve.engine.cache_hit_ratio": "serve.engine.s",
    "serve.index.build_s": "setup_s on serve-assign; throughput_per_s on stream-drift",
    "serve.index.assign_s": "throughput_per_s on stream-drift",
    "http.parse_ms": "latency_p50_ms and throughput_per_s on serve-assign",
    "http.decode_ms": "latency_p50_ms on serve-assign",
    "http.queue_wait_ms": "latency_p50_ms and throughput_per_s on serve-assign",
    "http.engine_ms": "latency_p50_ms on serve-assign",
    "http.encode_ms": "latency_p50_ms on serve-assign",
    "http.return_ms": "latency_p50_ms on serve-assign",
    "http.unaccounted_ms": "latency_p50_ms on serve-assign",
    "http.batcher.batch_size": "throughput_per_s on serve-assign",
    "http.batcher.flushes": "throughput_per_s on serve-assign",
    "http.rejected": "throughput_per_s on serve-assign",
    "http.batch_p50_ms": "/assign_batch latency on serve-assign (engine-bound)",
    "server.cpu_ms_per_request": "throughput_per_s on serve-assign",
    "stream.reservoir.s": "throughput_per_s on stream-drift",
    "stream.drift.s": "throughput_per_s on stream-drift",
    "stream.label.s": "throughput_per_s on stream-drift",
    "stream.refit.fit_s": "latency_p50_ms on stream-drift",
    "stream.publish.s": "latency_p50_ms on stream-drift",
    "stream.refits": "throughput_per_s on stream-drift",
    "stream.drift_triggers": "stream.refits",
    "loadgen.late_ms": "benchmark check: generator lateness tail",
    "trace.overhead_ratio": "benchmark check: traced / untraced - 1",
    "unaccounted_share": "benchmark check: end-to-end time no layer covers",
}
