"""The async HTTP serving layer: protocol, batcher, endpoints, backpressure.

The integration tests run a real :class:`RockHttpServer` on a
background event-loop thread (``serve_in_thread``) and talk to it over
real sockets with ``http.client`` -- the same path production traffic
takes.  Acceptance bars covered here:

* concurrent single-point requests coalesce into strictly fewer engine
  calls, and server-side ``http.*`` counters never double-report the
  engine-level ``serve.*`` families (the double-count seam);
* a full queue answers ``503`` with ``Retry-After`` instead of
  queueing unboundedly;
* ``/metrics`` renders well-formed Prometheus 0.0.4 for the combined
  engine + server registry;
* the batcher dispatches on idle: a lone point reaches the engine
  within one loop pass, with no timer;
* shutdown drains admitted requests and closes idle keep-alive
  connections before the loop stops.
"""

import asyncio
import gc
import http.client
import json
import logging
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import RockPipeline
from repro.data.records import CategoricalRecord, CategoricalSchema
from repro.datasets import small_synthetic_basket
from repro.obs.export import prometheus_name
from repro.obs.registry import MetricsRegistry
from repro.serve import AssignmentEngine, RockModel
from repro.serve.http import (
    BatcherClosed,
    ProtocolError,
    QueueFull,
    RequestBatcher,
    serve_in_thread,
)
from repro.serve.http.batcher import QUEUE_WAIT_EDGES
from repro.serve.http.protocol import read_request, render_response


@pytest.fixture(scope="module")
def fitted_model():
    basket = small_synthetic_basket(
        n_clusters=3, cluster_size=100, n_outliers=10, seed=7
    )
    pipeline = RockPipeline(
        k=3, theta=0.45, sample_size=120, min_cluster_size=5, seed=0
    )
    _, model = pipeline.fit_model(basket.transactions)
    return basket, model


@pytest.fixture
def running_server(fitted_model, tmp_path):
    _, model = fitted_model
    path = tmp_path / "model.json"
    model.save(path)
    with serve_in_thread(path, poll_seconds=5.0) as handle:
        yield handle


def request_json(
    address, method, path, payload=None, conn=None
):
    """One request over a fresh or reused keep-alive connection."""
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(*address, timeout=30)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    if own:
        conn.close()
    data = json.loads(raw) if raw and response.headers.get(
        "Content-Type", ""
    ).startswith("application/json") else raw
    return response, data


# ---------------------------------------------------------------------------
# protocol unit tests
# ---------------------------------------------------------------------------

def parse_bytes(raw: bytes):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_run())


class TestProtocol:
    def test_parses_request_line_headers_and_body(self):
        raw = (
            b"POST /assign?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Length: 4\r\n\r\nabcd"
        )
        request = parse_bytes(raw)
        assert request.method == "POST"
        assert request.path == "/assign"
        assert request.query == "x=1"
        assert request.headers["host"] == "localhost"
        assert request.body == b"abcd"
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert not parse_bytes(raw).keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"NONSENSE\r\n\r\n")

    def test_bad_content_length_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_truncated_body_raises(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_chunked_rejected(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ProtocolError):
            parse_bytes(raw)

    def test_oversized_body_rejected_with_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 413

    def test_render_response_has_exact_content_length(self):
        raw = render_response(200, b'{"ok":1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok":1}'
        assert b"Content-Length: 8" in head
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")


# ---------------------------------------------------------------------------
# batcher unit tests
# ---------------------------------------------------------------------------

def submit_all(batcher, points):
    """One task per point, as the server's connection handlers submit."""
    return [asyncio.ensure_future(batcher.submit(p)) for p in points]


async def passes(n):
    for _ in range(n):
        await asyncio.sleep(0)


class TestBatcher:
    def test_coalesces_concurrent_submissions(self):
        """Submissions made in the leader's one yielded pass join its
        batch: six concurrent submits, one flush."""
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                return [p * 10 for p in points]

            batcher = RequestBatcher(flush, batch_max=8)
            results = await asyncio.gather(*submit_all(batcher, range(6)))
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == [0, 10, 20, 30, 40, 50]
        assert calls == [[0, 1, 2, 3, 4, 5]]

    def test_batch_max_chunks_one_leaders_queue(self):
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                return points

            batcher = RequestBatcher(flush, batch_max=2)
            results = await asyncio.gather(*submit_all(batcher, range(5)))
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == list(range(5))
        assert calls == [[0, 1], [2, 3], [4]]

    def test_batch_max_one_never_coalesces(self):
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                return points

            batcher = RequestBatcher(flush, batch_max=1)
            results = await asyncio.gather(*submit_all(batcher, range(5)))
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == list(range(5))
        assert calls == [[i] for i in range(5)]

    def test_submissions_during_a_flush_form_the_next_batch(self):
        """A leader whose predecessor's flush is still in flight waits
        for it; what queues meanwhile joins the waiting leader's batch."""
        calls = []

        async def _run():
            release = asyncio.Event()

            async def flush(points):
                calls.append(list(points))
                if len(calls) == 1:
                    await release.wait()
                return points

            batcher = RequestBatcher(flush, batch_max=8)
            first = submit_all(batcher, [0])
            await passes(3)  # 0 leads and is flushing
            later = submit_all(batcher, [1, 2])
            await passes(3)  # 1 leads, waits for the flush; 2 follows
            later += submit_all(batcher, [3])
            await passes(1)
            assert calls == [[0]]
            release.set()
            results = await asyncio.gather(*first, *later)
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == [0, 1, 2, 3]
        assert calls == [[0], [1, 2, 3]]

    def test_queue_full_raises_and_counts(self):
        registry = MetricsRegistry()

        async def _run():
            release = asyncio.Event()

            async def flush(points):
                await release.wait()
                return points

            batcher = RequestBatcher(
                flush, batch_max=1, queue_depth=2, registry=registry
            )
            admitted = submit_all(batcher, range(2))
            await passes(2)
            assert batcher.pending == 2
            with pytest.raises(QueueFull):
                await batcher.submit(99)
            release.set()
            results = await asyncio.gather(*admitted)
            await batcher.aclose()
            return results

        assert asyncio.run(_run()) == [0, 1]
        assert registry.snapshot()["counters"]["http.batcher.rejected"] == 1

    def test_flush_exception_propagates_to_every_waiter(self):
        async def _run():
            async def flush(points):
                raise RuntimeError("engine exploded")

            batcher = RequestBatcher(flush, batch_max=8)
            results = await asyncio.gather(
                *submit_all(batcher, range(3)), return_exceptions=True
            )
            await batcher.aclose()
            return results

        results = asyncio.run(_run())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_aclose_drains_admitted_work(self):
        async def _run():
            async def flush(points):
                await asyncio.sleep(0.005)
                return points

            batcher = RequestBatcher(flush, batch_max=4)
            tasks = submit_all(batcher, range(10))
            await passes(1)  # every submission admitted
            await batcher.aclose()
            assert batcher.pending == 0
            assert all(task.done() for task in tasks)
            with pytest.raises(BatcherClosed):
                await batcher.submit(10)
            return [task.result() for task in tasks]

        assert asyncio.run(_run()) == list(range(10))

    def test_lone_submit_flushes_within_one_pass_without_a_timer(self):
        """A lone point costs one loop pass: no timer, and no task but
        the submitting one."""
        calls = []
        timers = []

        class RecordingLoop(asyncio.SelectorEventLoop):
            def call_at(self, when, callback, *args, **kwargs):
                timers.append(callback)
                return super().call_at(when, callback, *args, **kwargs)

        async def _run():
            async def flush(points):
                calls.append(list(points))
                flushers.append(asyncio.current_task())
                assert len(asyncio.all_tasks()) == len(flushers)
                return points

            flushers = []
            batcher = RequestBatcher(flush)
            assert await batcher.submit("p") == "p"
            # from a request's task: pass 1 queues it and yields, pass 2
            # finds nothing new and flushes
            task = asyncio.ensure_future(batcher.submit("q"))
            await passes(2)
            assert task.result() == "q"
            assert calls == [["p"], ["q"]]
            assert flushers == [asyncio.current_task(), task]
            await batcher.aclose()

        loop = RecordingLoop()
        try:
            loop.run_until_complete(_run())
        finally:
            loop.close()
        assert timers == []

    def test_leader_cancelled_before_its_flush_hands_the_batch_on(self):
        calls = []

        async def _run():
            async def flush(points):
                calls.append(list(points))
                return points

            batcher = RequestBatcher(flush, batch_max=8)
            leader, *followers = submit_all(batcher, range(3))
            await passes(1)  # all three queued; 0 yielded its pass
            leader.cancel()
            results = await asyncio.gather(*followers)
            await batcher.aclose()
            assert leader.cancelled()
            assert batcher.pending == 0
            return results

        assert asyncio.run(_run()) == [1, 2]
        assert calls == [[0, 1, 2]]

    def test_leader_cancelled_mid_flush_fails_that_chunk_only(self):
        calls = []

        async def _run():
            entered = asyncio.Event()

            async def flush(points):
                calls.append(list(points))
                if len(calls) == 1:
                    entered.set()
                    await asyncio.Event().wait()  # until cancelled
                return points

            batcher = RequestBatcher(flush, batch_max=2)
            leader, *followers = submit_all(batcher, range(5))
            await entered.wait()
            leader.cancel()
            results = await asyncio.gather(*followers, return_exceptions=True)
            await batcher.aclose()
            assert batcher.pending == 0
            return results

        results = asyncio.run(_run())
        # 1 shared the cancelled flush; 2..4 were handed to a new leader
        assert isinstance(results[0], BatcherClosed)
        assert results[1:] == [2, 3, 4]
        assert calls == [[0, 1], [2, 3], [4]]

    def test_validates_parameters(self):
        async def flush(points):
            return points

        with pytest.raises(ValueError):
            RequestBatcher(flush, batch_max=0)
        with pytest.raises(ValueError):
            RequestBatcher(flush, queue_depth=0)


class FlushFailed(RuntimeError):
    """Raised by the property test's flush for the batches it fails."""


batcher_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 5)),
        st.tuples(st.just("yield"), st.integers(1, 3)),
        st.tuples(st.just("close"), st.just(0)),
    ),
    max_size=25,
)


@given(
    steps=batcher_steps,
    batch_max=st.integers(1, 6),
    delays=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    failures=st.lists(st.booleans(), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_batcher_resolves_every_future_once_in_submission_order(
    steps, batch_max, delays, failures
):
    """Any interleaving of submitting requests, loop passes, slow or
    failing flushes and ``aclose``: each admitted point lands in exactly
    one batch of at most ``batch_max``, batches in submission order, and
    its submission returns exactly once with its own result (or raises
    its batch's exception)."""
    batches = []

    async def flush(points):
        index = len(batches)
        batches.append(list(points))
        for _ in range(delays[index % len(delays)]):
            await asyncio.sleep(0)
        if failures[index % len(failures)]:
            raise FlushFailed(index)
        return [p * 10 for p in points]

    async def _run():
        batcher = RequestBatcher(flush, batch_max=batch_max)
        tasks, resolutions = {}, {}
        closing = None
        next_point = 0
        for op, arg in steps:
            if op == "yield":
                await passes(arg)
            elif op == "close" and closing is None:
                closing = asyncio.ensure_future(batcher.aclose())
            elif op == "submit":
                for _ in range(arg):
                    point, next_point = next_point, next_point + 1
                    task = tasks[point] = asyncio.ensure_future(
                        batcher.submit(point)
                    )
                    resolutions[point] = 0
                    task.add_done_callback(
                        lambda _, p=point: resolutions.__setitem__(
                            p, resolutions[p] + 1
                        )
                    )
        if tasks:
            await asyncio.wait(tasks.values())
        await (closing if closing is not None else batcher.aclose())
        await asyncio.sleep(0)  # run the done callbacks
        return batcher.pending, tasks, resolutions

    pending, tasks, resolutions = asyncio.run(_run())
    admitted = [
        p for p, task in tasks.items()
        if not isinstance(task.exception(), BatcherClosed)
    ]
    assert pending == 0
    assert all(1 <= len(batch) <= batch_max for batch in batches)
    assert [p for batch in batches for p in batch] == admitted
    assert all(count == 1 for count in resolutions.values())
    for index, batch in enumerate(batches):
        for point in batch:
            task = tasks[point]
            if failures[index % len(failures)]:
                assert isinstance(task.exception(), FlushFailed)
                assert task.exception().args == (index,)
            else:
                assert task.result() == point * 10

# ---------------------------------------------------------------------------
# endpoint integration
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_healthz(self, running_server):
        response, data = request_json(
            running_server.address, "GET", "/healthz"
        )
        assert response.status == 200
        assert data["status"] == "ok"
        assert data["reload_errors"] == 0

    def test_model_reports_version_and_facts(self, running_server, fitted_model):
        _, model = fitted_model
        response, data = request_json(running_server.address, "GET", "/model")
        assert response.status == 200
        assert data["n_clusters"] == model.n_clusters
        assert data["theta"] == model.theta
        assert len(data["model_version"]) == 16
        assert data["vectorized"] is True

    def test_model_body_contains_service_describe(self, running_server):
        """``/model`` and ``AssignmentEngine.describe()`` build the
        model facts in one place, so they agree on the same artifact."""
        engine = AssignmentEngine(RockModel.load(running_server.server.model_path))
        expected = json.loads(json.dumps(engine.describe()))
        _, data = request_json(running_server.address, "GET", "/model")
        assert {key: data[key] for key in expected} == expected
        assert data.keys() - expected.keys() == {
            "model_version", "model_age_seconds", "loaded_unix"
        }

    def test_assign_agrees_with_engine(self, running_server, fitted_model):
        basket, model = fitted_model
        engine_labels = running_server.server.watcher.current.engine
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        for txn in basket.transactions[:10]:
            response, data = request_json(
                running_server.address, "POST", "/assign",
                {"point": sorted(txn.items)}, conn=conn,
            )
            assert response.status == 200
            assert data["label"] == engine_labels.assign(txn)
        conn.close()

    def test_assign_outlier_is_minus_one(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign",
            {"point": ["never", "seen", "anywhere"]},
        )
        assert response.status == 200
        assert data["label"] == -1

    def test_assign_batch_matches_singles(self, running_server, fitted_model):
        basket, _ = fitted_model
        points = [sorted(t.items) for t in basket.transactions[:20]]
        response, data = request_json(
            running_server.address, "POST", "/assign_batch",
            {"points": points},
        )
        assert response.status == 200
        assert len(data["labels"]) == 20
        singles = [
            request_json(
                running_server.address, "POST", "/assign", {"point": p}
            )[1]["label"]
            for p in points[:5]
        ]
        assert data["labels"][:5] == singles

    def test_assign_batch_empty_points(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign_batch", {"points": []}
        )
        assert response.status == 200
        assert data["labels"] == []

    def test_bad_json_is_400(self, running_server):
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        conn.request("POST", "/assign", body="{not json")
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in data["error"]

    def test_missing_point_is_400(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign", {"nope": 1}
        )
        assert response.status == 400

    def test_non_array_point_is_400(self, running_server):
        response, data = request_json(
            running_server.address, "POST", "/assign", {"point": "abc"}
        )
        assert response.status == 400

    def test_unknown_route_404_known_route_wrong_method_405(
        self, running_server
    ):
        response, _ = request_json(running_server.address, "GET", "/nope")
        assert response.status == 404
        response, _ = request_json(running_server.address, "GET", "/assign")
        assert response.status == 405

    def test_record_model_decodes_value_rows(self, tmp_path):
        schema = CategoricalSchema(["a", "b", "c"])
        model = RockModel(
            labeling_sets=[
                [CategoricalRecord(schema, ["x", "y", "z"])],
                [CategoricalRecord(schema, ["p", "q", "r"])],
            ],
            theta=0.3,
            f_theta=(1 - 0.3) / (1 + 0.3),
        )
        path = tmp_path / "records.json"
        model.save(path)
        with serve_in_thread(path, poll_seconds=5.0) as handle:
            response, data = request_json(
                handle.address, "POST", "/assign", {"point": ["x", "y", "z"]}
            )
            assert response.status == 200
            assert data["label"] == 0
            # wrong arity is a clear 400, not a 500
            response, data = request_json(
                handle.address, "POST", "/assign", {"point": ["x"]}
            )
            assert response.status == 400
            assert "3 attribute" in data["error"]


# ---------------------------------------------------------------------------
# batching, backpressure, metrics, shutdown
# ---------------------------------------------------------------------------

def hammer(address, points, n_threads, per_thread, path="/assign"):
    """Closed-loop load: n_threads keep-alive clients, statuses returned."""
    statuses = []
    lock = threading.Lock()

    def worker(worker_id):
        conn = http.client.HTTPConnection(*address, timeout=30)
        local = []
        for i in range(per_thread):
            point = points[(worker_id * per_thread + i) % len(points)]
            conn.request("POST", path, body=json.dumps({"point": point}))
            response = conn.getresponse()
            response.read()
            local.append(response.status)
        conn.close()
        with lock:
            statuses.extend(local)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return statuses


class TestBatchingAndMetrics:
    def test_concurrent_assigns_coalesce_and_families_stay_disjoint(
        self, fitted_model, tmp_path
    ):
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        points = [sorted(t.items) for t in basket.transactions[:64]]
        with serve_in_thread(
            path, poll_seconds=5.0, batch_max=32
        ) as handle:
            statuses = hammer(handle.address, points, n_threads=8, per_thread=20)
            snap = handle.server.registry.snapshot()
        assert statuses == [200] * 160
        counters = snap["counters"]
        # coalescing: strictly fewer engine calls than HTTP requests
        assert counters["http.requests.assign"] == 160
        assert counters["http.batcher.flushes"] < 160
        # the double-count seam: the engine-level serve.* family counts
        # engine calls (= flushes), NOT HTTP requests -- the server's
        # own traffic lives under http.* only
        assert counters["serve.requests"] == counters["http.batcher.flushes"]
        assert counters["serve.points"] == 160
        assert not any(
            name.startswith("serve.") and ".requests." in name
            for name in counters
        )

    def test_idle_requests_flush_alone_and_busy_ones_coalesce(
        self, fitted_model, tmp_path
    ):
        """Sequential requests on an idle server make one engine call
        each; requests that arrive while the loop is inside an engine
        call share the next one."""
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        points = [sorted(t.items) for t in basket.transactions[:11]]
        with serve_in_thread(path, poll_seconds=5.0) as handle:
            address = handle.address
            conn = http.client.HTTPConnection(*address, timeout=30)
            for point in points[:6]:
                response, _ = request_json(
                    address, "POST", "/assign", {"point": point}, conn=conn
                )
                assert response.status == 200
            counters = handle.server.registry.snapshot()["counters"]
            assert counters["http.batcher.flushes"] == 6
            assert counters["serve.requests"] == 6
            # four keep-alive connections, accepted while the loop is idle
            busy = [
                http.client.HTTPConnection(*address, timeout=30) for _ in range(4)
            ]
            for other in busy:
                request_json(address, "GET", "/healthz", conn=other)
            engine = handle.server.watcher.current.engine
            original = engine.assign_batch
            entered = threading.Event()

            def slow(batch):
                if not entered.is_set():
                    entered.set()
                    time.sleep(0.3)  # the loop is held here
                return original(batch)

            engine.assign_batch = slow
            held = threading.Thread(
                target=request_json,
                args=(address, "POST", "/assign", {"point": points[6]}, conn),
            )
            held.start()
            assert entered.wait(10)
            for other, point in zip(busy, points[7:]):
                other.request(
                    "POST", "/assign", body=json.dumps({"point": point})
                )
            statuses = [other.getresponse().status for other in busy]
            held.join(10)
            assert not held.is_alive()
            snap = handle.server.registry.snapshot()
            for client in (conn, *busy):
                client.close()
        assert statuses == [200] * 4
        assert snap["counters"]["http.batcher.flushes"] == 8
        assert snap["counters"]["serve.requests"] == 8
        assert snap["counters"]["serve.points"] == 11
        assert snap["histograms"]["http.batcher.batch_size"]["max"] == 4

    def test_metrics_endpoint_is_wellformed_prometheus(self, running_server):
        # drive every endpoint so the combined registry is populated
        request_json(running_server.address, "POST", "/assign",
                     {"point": [1, 2, 3]})
        request_json(running_server.address, "POST", "/assign_batch",
                     {"points": [[1, 2, 3]]})
        request_json(running_server.address, "GET", "/model")
        request_json(running_server.address, "GET", "/healthz")
        conn = http.client.HTTPConnection(*running_server.address, timeout=30)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        conn.close()
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(help_lines) == len(set(help_lines))
        assert len(type_lines) == len(set(type_lines))
        sample_names = []
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses
            bare = name_part.split("{", 1)[0]
            assert prometheus_name(bare) == bare  # already sanitised
            if "{" not in name_part:
                sample_names.append(bare)
        # no duplicated un-labelled sample (the combined-registry bar)
        assert len(sample_names) == len(set(sample_names))
        # both sides of the seam are present, exactly once each
        assert sum(
            l.startswith("# TYPE rock_serve_requests_total ")
            for l in type_lines
        ) == 1
        assert sum(
            l.startswith("# TYPE rock_http_requests_assign_total ")
            for l in type_lines
        ) == 1
        # per-endpoint latency histograms exist for every driven route
        for route in ("assign", "assign_batch", "model", "healthz"):
            assert f"rock_http_latency_{route}_count" in text

    def test_backpressure_answers_503_with_retry_after(
        self, fitted_model, tmp_path
    ):
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        with serve_in_thread(
            path, poll_seconds=5.0, batch_max=1, queue_depth=2,
        ) as handle:
            # make every engine call slow so the bounded queue fills
            engine = handle.server.watcher.current.engine
            original = engine.assign_batch

            def slow(points):
                time.sleep(0.05)
                return original(points)

            engine.assign_batch = slow
            point = sorted(basket.transactions[0].items)
            saw = {"ok": 0, "shed": 0, "retry_after": True}

            def worker():
                conn = http.client.HTTPConnection(*handle.address, timeout=30)
                for _ in range(6):
                    conn.request(
                        "POST", "/assign", body=json.dumps({"point": point})
                    )
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        saw["ok"] += 1
                    elif response.status == 503:
                        saw["shed"] += 1
                        if response.headers.get("Retry-After") is None:
                            saw["retry_after"] = False
                conn.close()

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = handle.server.registry.snapshot()["counters"]
        assert saw["shed"] > 0, "bounded queue never shed load"
        assert saw["ok"] > 0, "every request was shed"
        assert saw["retry_after"], "503 responses must carry Retry-After"
        assert snap["http.rejected"] == saw["shed"]

    def test_request_spans_nest_under_server_root(self, running_server):
        request_json(running_server.address, "GET", "/healthz")
        request_json(running_server.address, "POST", "/assign",
                     {"point": [1, 2, 3]})
        roots = running_server.server.tracer.spans()
        root = next(s for s in roots if s.name == "serve.http")
        child_names = {c.name for c in root.children}
        assert "http.healthz" in child_names
        assert "http.assign" in child_names
        statuses = {c.attrs.get("status") for c in root.children}
        assert statuses <= {200, 400, 404, 405, 503}

    def test_span_recording_is_bounded(self, fitted_model, tmp_path):
        _, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        with serve_in_thread(
            path, poll_seconds=5.0, trace_max_requests=3
        ) as handle:
            for _ in range(6):
                request_json(handle.address, "GET", "/healthz")
            root = next(
                s for s in handle.server.tracer.spans()
                if s.name == "serve.http"
            )
            snap = handle.server.registry.snapshot()["counters"]
        assert len(root.children) == 3
        assert snap["http.trace.dropped"] == 3

    def test_graceful_shutdown_completes_inflight_and_stops_accepting(
        self, fitted_model, tmp_path
    ):
        """A request the batcher admitted before the stop began is
        answered, and the listener is closed."""
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        handle = serve_in_thread(path, poll_seconds=5.0)
        address = handle.address
        batcher = handle.server.batcher
        submit = batcher.submit
        stops = []

        async def submit_then_stop(point):
            # the stop begins in the loop pass this point's leader yields,
            # after the point is admitted and before it is flushed
            stops.append(asyncio.ensure_future(handle.server.shutdown()))
            return await submit(point)

        batcher.submit = submit_then_stop
        txn = basket.transactions[0]
        response, data = request_json(
            address, "POST", "/assign", {"point": sorted(txn.items)}
        )
        assert response.status == 200, "admitted request was dropped on shutdown"
        assert data["label"] == model.labeler().assign(txn)
        assert response.headers["Connection"] == "close"
        handle.stop(timeout=10)  # waits for the stop already under way
        assert len(stops) == 1 and stops[0].done()
        with pytest.raises(OSError):
            http.client.HTTPConnection(*address, timeout=2).request(
                "GET", "/healthz"
            )
        # the root span closed with real timings
        root = next(
            s for s in handle.server.tracer.spans() if s.name == "serve.http"
        )
        assert root.wall_seconds > 0

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_stop_closes_idle_keep_alive_connections(
        self, fitted_model, tmp_path, caplog
    ):
        """A handler waiting for a keep-alive client's next request ends
        inside ``shutdown``, not after the loop is gone (which raised
        ``Event loop is closed``), and without an asyncio error log."""
        basket, model = fitted_model
        path = tmp_path / "model.json"
        model.save(path)
        handle = serve_in_thread(path, poll_seconds=5.0)
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        response, _ = request_json(
            handle.address, "POST", "/assign",
            {"point": sorted(basket.transactions[0].items)}, conn=conn,
        )
        assert response.status == 200
        handle.stop(timeout=10)
        conn.close()
        gc.collect()
        assert not [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]

    def test_queue_wait_histogram_observes_every_point(self, running_server):
        for _ in range(3):
            request_json(running_server.address, "POST", "/assign",
                         {"point": [1, 2, 3]})
        hist = running_server.server.registry.snapshot()["histograms"][
            "http.batcher.queue_wait_seconds"
        ]
        assert hist["count"] == 3
        assert hist["edges"] == list(QUEUE_WAIT_EDGES)
        assert 0.0 <= hist["min"] <= hist["max"] < 1.0
        _, text = request_json(running_server.address, "GET", "/metrics")
        lines = text.decode("utf-8").splitlines()
        assert "# TYPE rock_http_batcher_queue_wait_seconds histogram" in lines
        assert 'rock_http_batcher_queue_wait_seconds_bucket{le="+Inf"} 3' in lines
        assert "rock_http_batcher_queue_wait_seconds_count 3" in lines
