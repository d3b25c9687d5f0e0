"""Wrappers around the program's layer entry points, for traced runs only.

Each wrapper is installed on the attribute the layer's caller looks up
at call time (``repro.core.pipeline.compute_links``, a class method,
...), so the program runs unchanged apart from the timing calls.  Two
sets exist:

* :func:`install_inprocess` -- the fit pipeline, model persistence, the
  assignment index and the streaming session, recorded as spans in the
  benchmark's own process;
* :func:`install_server` -- the HTTP path inside the server process,
  recorded per request (keyed by the client's ``X-Request-Id``) plus
  engine/index spans.

Both use the system-wide monotonic clock, so server stamps and client
stamps can be subtracted directly.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from collections.abc import Callable
from types import SimpleNamespace
from typing import Any

from perfbench.spans import Patcher, SpanRecord, SpanRecorder


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counter(registry: Any, name: str) -> float:
    if registry is None:
        return 0.0
    return float(registry.snapshot()["counters"].get(name, 0.0))


def _degree_sum(result: Any) -> int:
    degrees = result.degrees
    degrees = degrees() if callable(degrees) else degrees
    return int(degrees.sum())


# which kernel a neighbor entry point stands for; the generic one reports
# whether it built the dense adjacency or sparse neighbor lists
_NEIGHBOR_BACKENDS = {"fused_neighbor_links": "fused", "native_neighbor_links": "native"}


def install_inprocess(rec: SpanRecorder) -> Patcher:
    """Wrap the fit, persistence, index and stream layers; returns the patcher."""
    import repro.core.pipeline as pipeline
    import repro.native.links as native_links
    import repro.parallel.links as parallel_links
    import repro.stream.runner as runner
    from repro.core.labeling import ClusterLabeler
    from repro.core.pipeline import RockPipeline
    from repro.serve.index import AssignmentIndex
    from repro.serve.model import RockModel
    from repro.stream.drift import DriftDetector
    from repro.stream.reservoir import OnlineReservoir

    patch = Patcher()

    def neighbors_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            rss0 = peak_rss_mb()
            with rec.span("core.neighbors") as span:
                result = fn(*args, **kwargs)
            span.attrs["rss_delta_mb"] = peak_rss_mb() - rss0
            span.attrs["edges"] = _degree_sum(result) // 2
            span.attrs["backend"] = _NEIGHBOR_BACKENDS.get(fn.__name__) or (
                "dense" if result.has_dense else "sparse"
            )
            return result

        return wrapper

    def after_links(span: SpanRecord, result: Any, args: tuple, kwargs: dict) -> None:
        span.attrs["pairs"] = int(result.nnz_pairs())

    def merge_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            registry = kwargs.get("registry")
            before = {
                n: _counter(registry, f"fit.cluster.{n}")
                for n in ("heap_ops", "components")
            }
            with rec.span("core.merge") as span:
                result = fn(*args, **kwargs)
            span.attrs["merges"] = len(result.merges)
            for name, value in before.items():
                span.attrs[name] = _counter(registry, f"fit.cluster.{name}") - value
            return result

        return wrapper

    def after_save(span: SpanRecord, result: Any, args: tuple, kwargs: dict) -> None:
        target = args[1] if len(args) > 1 else kwargs.get("target")
        if isinstance(target, (str, os.PathLike)):
            span.attrs["bytes"] = os.path.getsize(target)

    def after_publish(span: SpanRecord, result: Any, args: tuple, kwargs: dict) -> None:
        span.attrs["bytes"] = os.path.getsize(args[1])

    def observe_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        hot = rec.wrap_hot(fn, "stream.drift")

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            trigger = hot(*args, **kwargs)
            if trigger is not None and rec.active:
                rec.add_hot("stream.drift_triggers", 0.0)
            return trigger

        return wrapper

    span = rec.wrap
    patch.wrap(RockPipeline, "fit", lambda f: span(f, "fit"))
    patch.wrap(pipeline, "sample_indices", lambda f: span(f, "core.sampling"))
    patch.wrap(pipeline, "compute_neighbor_graph", neighbors_wrapper)
    patch.wrap(parallel_links, "fused_neighbor_links", neighbors_wrapper)
    patch.wrap(native_links, "native_neighbor_links", neighbors_wrapper)
    patch.wrap(pipeline, "compute_links", lambda f: span(f, "core.links", after_links))
    patch.wrap(pipeline, "cluster_with_links", merge_wrapper)
    patch.wrap(pipeline, "draw_labeling_sets", lambda f: span(f, "core.labeling"))
    patch.wrap(ClusterLabeler, "__init__", lambda f: rec.wrap_hot(f, "core.labeling.build"))
    patch.wrap(ClusterLabeler, "assign", lambda f: rec.wrap_hot(f, "core.labeling.assign"))
    patch.wrap(RockPipeline, "to_model", lambda f: span(f, "serve.model.to_model"))
    patch.wrap(RockModel, "save", lambda f: span(f, "serve.model.save", after_save))
    patch.wrap(RockModel, "load", lambda f: span(f, "serve.model.load"))
    patch.wrap(AssignmentIndex, "__init__", lambda f: span(f, "serve.index.build"))
    patch.wrap(AssignmentIndex, "assign", lambda f: rec.wrap_hot(f, "serve.index.assign"))
    patch.wrap(
        AssignmentIndex, "assign_with_scores",
        lambda f: rec.wrap_hot(f, "serve.index.assign"),
    )
    patch.wrap(runner.StreamClusterer, "process", lambda f: span(f, "stream.session"))
    patch.wrap(runner.StreamClusterer, "_refit", lambda f: span(f, "stream.refit"))
    patch.wrap(runner.StreamClusterer, "_label_batch", lambda f: span(f, "stream.label"))
    patch.wrap(runner, "publish_model", lambda f: span(f, "stream.publish", after_publish))
    patch.wrap(OnlineReservoir, "extend", lambda f: rec.wrap_hot(f, "stream.reservoir"))
    patch.wrap(DriftDetector, "observe", observe_wrapper)
    return patch


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)


class RequestTable:
    """Per-request server stamps, keyed by the client's ``X-Request-Id``."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.rows: dict[str, dict[str, float]] = {}
        self.by_point: dict[int, str] = {}

    def current(self) -> dict[str, float] | None:
        rid = _REQUEST_ID.get()
        return None if rid is None else self.rows.get(rid)

    def add(self, key: str, seconds: float) -> None:
        row = self.current()
        if row is not None:
            row[key] = row.get(key, 0.0) + seconds


def install_server(rec: SpanRecorder, table: RequestTable) -> Patcher:
    """Wrap the HTTP path (parse, decode, batcher, flush, encode) and the engine."""
    import repro.serve.http.reload as reload
    import repro.serve.http.server as server
    from repro.serve.engine import AssignmentEngine
    from repro.serve.http.batcher import RequestBatcher
    from repro.serve.index import AssignmentIndex

    clock = table.clock
    patch = Patcher()

    def read_request_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        async def read_request(*args: Any, **kwargs: Any) -> Any:
            request = await fn(*args, **kwargs)
            now = clock()
            rid = None if request is None else request.headers.get("x-request-id")
            _REQUEST_ID.set(rid)
            if rid is not None:
                table.rows[rid] = {"parsed": now}
            return request

        return read_request

    def timed(fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                table.add(key, clock() - start)

        return wrapper

    def render_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        def render_response(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            out = fn(*args, **kwargs)
            end = clock()
            row = table.current()
            if row is not None:
                row["encode"] = row.get("encode", 0.0) + end - start
                row["rendered"] = end
            return out

        return render_response

    def decoder_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        def point_decoder(model: Any) -> Any:
            return timed(fn(model), "decode")

        return point_decoder

    def submit_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        def submit(self: Any, point: Any) -> Any:
            future = fn(self, point)
            row = table.current()
            if row is not None:
                row["submit"] = clock()
                table.by_point[id(point)] = _REQUEST_ID.get()
            return future

        return submit

    def flush_wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        async def _flush_assign(self: Any, points: list[Any]) -> Any:
            start = clock()
            result = await fn(self, points)
            end = clock()
            for point in points:
                rid = table.by_point.pop(id(point), None)
                if rid in table.rows:
                    table.rows[rid].update(flush_start=start, flush_end=end)
            return result

        return _flush_assign

    def after_engine(span: SpanRecord, result: Any, args: tuple, kwargs: dict) -> None:
        span.attrs["points"] = len(result)

    timed_json = SimpleNamespace(
        loads=timed(json.loads, "decode"),
        dumps=timed(json.dumps, "encode"),
        JSONDecodeError=json.JSONDecodeError,
    )
    patch.wrap(server, "json", lambda _: timed_json)
    patch.wrap(server, "read_request", read_request_wrapper)
    patch.wrap(server, "render_response", render_wrapper)
    patch.wrap(server, "point_decoder", decoder_wrapper)
    patch.wrap(RequestBatcher, "submit", submit_wrapper)
    patch.wrap(server.RockHttpServer, "_flush_assign", flush_wrapper)
    patch.wrap(
        AssignmentEngine, "assign_batch",
        lambda f: rec.wrap(f, "serve.engine", after_engine),
    )
    patch.wrap(AssignmentIndex, "__init__", lambda f: rec.wrap(f, "serve.index.build"))
    patch.wrap(reload, "_read_artifact", lambda f: rec.wrap(f, "serve.model.load"))
    return patch
