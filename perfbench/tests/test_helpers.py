"""Tests of the benchmark's own helpers.

Run from the checkout root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from perfbench.hostspeed import REFERENCE_MS, HostSpeed, normalise
from perfbench.loadgen import (
    Outcome,
    Request,
    backlog_growth_ms,
    evaluate_phase,
    run_open_loop,
    schedule,
)
from perfbench.spans import SpanRecord, SpanRecorder, self_times, union_length
from perfbench.stats import (
    nearest_rank,
    quartile_spread,
    samples_beyond,
    summarize,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize(
    "n, label",
    [(1000, "p99"), (999, "p95"), (200, "p95"), (199, "p90"), (100, "p90"),
     (40, "p75"), (20, "p50"), (19, "max"), (1, "max"), (10_000, "p99.9")],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label):
    values = list(range(1, n + 1))
    summary = summarize(values)
    assert summary["n"] == n
    assert summary["tail_label"] == label
    if label == "max":
        assert summary["tail"] == n
    else:
        pct = float(label[1:])
        assert samples_beyond(n, pct) >= 10
        assert summary["tail"] == nearest_rank(values, pct)


def test_samples_beyond_and_nearest_rank():
    values = list(range(1, 1001))
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(1000, 99.9) == 1
    assert nearest_rank(values, 99.0) == 990
    assert nearest_rank(values, 50.0) == 500
    assert tail_percentile(19) is None


def test_summary_median_ignores_order():
    assert summarize([5.0, 1.0, 3.0])["p50"] == 3.0


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- self time from a span tree ----------------------------------------------

def test_union_length_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_and_hot_calls():
    root = SpanRecord(id=0, name="fit", start=0.0, end=10.0)
    a = SpanRecord(id=1, name="neighbors", start=1.0, end=4.0, parent=0)
    b = SpanRecord(id=2, name="links", start=3.0, end=6.0, parent=0)  # overlaps a
    leaf = SpanRecord(id=3, name="inner", start=1.5, end=2.0, parent=1)
    late = SpanRecord(id=4, name="thread", start=9.0, end=12.0, parent=0)  # clipped
    label = SpanRecord(id=5, name="label", start=6.0, end=8.0, parent=0, hot_s=1.5)
    selfs = self_times([root, a, b, leaf, late, label])
    # root: 10 - union(1..6, 6..8, 9..10) = 10 - 8
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(0.5)


def test_recorder_nests_spans_and_charges_hot_calls_to_the_parent():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    hot = rec.wrap_hot(lambda x: x, "assign")
    with rec.span("fit"):           # start 0
        with rec.span("label"):     # start 1
            hot(1)                  # 2..3
            hot(2)                  # 4..5
        # label ends at 6
    # fit ends at 7
    rows = rec.by_name()
    assert rows["assign"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}
    assert rows["label"]["total_s"] == 5.0 and rows["label"]["self_s"] == 3.0
    assert rows["fit"]["total_s"] == 7.0 and rows["fit"]["self_s"] == 2.0
    fit = rec.named("fit")[0]
    assert [s.name for s in rec.descendants(fit)] == ["label"]


def test_inactive_recorder_passes_through():
    rec = SpanRecorder()
    rec.active = False
    assert rec.wrap(lambda: 7, "x")() == 7
    assert rec.wrap_hot(lambda: 8, "y")() == 8
    assert rec.spans == [] and not rec.hot


# -- the open-loop schedule and lateness accounting --------------------------

def test_schedule_is_fixed_rate():
    assert schedule(200.0, 4, 10.0) == pytest.approx([10.0, 10.005, 10.010, 10.015])
    with pytest.raises(ValueError):
        schedule(0.0, 3, 0.0)


def _outcome(due, free_at, start, recv, status=200):
    return Outcome(rid="r", due=due, free_at=free_at, start=start, sent=start,
                   recv=recv, status=status)


def test_generator_lateness_excludes_a_busy_connection():
    # the connection was busy until 1.010, so sending at 1.011 is 1 ms of
    # generator lateness but 11 ms late against the schedule
    o = _outcome(due=1.000, free_at=1.010, start=1.011, recv=1.020)
    assert o.generator_late_ms == pytest.approx(1.0)
    assert o.late_ms == pytest.approx(11.0)
    assert o.latency_ms == pytest.approx(20.0)


def test_backlog_growth_and_phase_verdicts():
    rate = 100.0
    dues = schedule(rate, 300, 0.0)
    steady = [_outcome(d, d, d, d + 0.003) for d in dues]
    assert backlog_growth_ms(steady) == pytest.approx(0.0)
    verdict = evaluate_phase(steady, rate)
    assert verdict["sustained"] and verdict["resolved"]
    assert verdict["tail_label"] == "p95" and verdict["p50_ms"] == pytest.approx(3.0)

    # each request starts 1 ms later than the one before: a growing backlog
    growing = [_outcome(d, d, d + i * 0.001, d + i * 0.001 + 0.003)
               for i, d in enumerate(dues)]
    assert backlog_growth_ms(growing) > 100.0
    assert not evaluate_phase(growing, rate)["sustained"]

    # the generator itself 20 ms late every time: unresolved, not a latency
    sleepy = [_outcome(d, d, d + 0.020, d + 0.023) for d in dues]
    verdict = evaluate_phase(sleepy, rate)
    assert not verdict["resolved"] and not verdict["sustained"]

    # failed requests count as missing the latency limit
    failing = steady[:]
    for o in failing[:20]:
        o.status = 503
    verdict = evaluate_phase(failing, rate)
    assert verdict["failed"] == 20 and not verdict["sustained"]


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.0
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.rfile.read(length)
        self.seen.append((self.headers["X-Request-Id"], self.client_address[1]))
        time.sleep(self.delay)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def slow_server():
    _SlowHandler.seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_open_loop_times_from_due_time_over_fixed_connections(slow_server):
    # 2 connections, a request every 5 ms, 20 ms service: each lane falls
    # further behind, and latency from the due time grows with it
    _SlowHandler.delay = 0.020
    host, port = slow_server.server_address
    start = time.monotonic() + 0.05
    reqs = [Request(due, "/assign", b"{}", str(i))
            for i, due in enumerate(schedule(200.0, 20, start))]
    outcomes = run_open_loop(host, port, reqs, connections=2, timeout=5.0)
    assert [o.rid for o in outcomes] == [str(i) for i in range(20)]
    assert all(o.ok for o in outcomes)
    assert len({port for _, port in _SlowHandler.seen}) == 2
    assert outcomes[-1].latency_ms > outcomes[0].latency_ms + 50.0
    assert outcomes[-1].late_ms > 50.0
    assert max(o.generator_late_ms for o in outcomes) < 5.0
    assert not evaluate_phase(outcomes, 200.0)["sustained"]


def test_open_loop_records_connection_errors():
    reqs = [Request(time.monotonic(), "/assign", b"{}", "0")]
    # a port nothing listens on: the request fails instead of raising
    outcomes = run_open_loop("127.0.0.1", 1, reqs, connections=1, timeout=1.0)
    assert not outcomes[0].ok and outcomes[0].error


# -- host-speed normalisation ------------------------------------------------

def test_normalise_scales_by_the_geometric_mean_of_the_readings():
    assert normalise(2.0, [REFERENCE_MS]) == pytest.approx(2.0)
    # a host running the probe at half speed doubles the wall time
    assert normalise(2.0, [2 * REFERENCE_MS]) == pytest.approx(1.0)
    assert normalise(1.0, [REFERENCE_MS / 2, REFERENCE_MS * 2]) == pytest.approx(1.0)


class FixedProbe(HostSpeed):
    """Probe readings taken from a list, in order; each costs no time."""

    def __init__(self, readings: list[float]) -> None:
        super().__init__()
        self.queue = list(readings)

    def probe(self) -> float:
        self._last = self.queue.pop(0)
        self.readings_ms.append(self._last)
        return self._last


def test_checkpoints_cut_an_operation_into_separately_scaled_segments(monkeypatch):
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0])  # segment walls: 1 s, then 2 s
    monkeypatch.setattr("perfbench.hostspeed.clock", lambda: next(ticks))
    speed = FixedProbe([REFERENCE_MS, 2 * REFERENCE_MS, REFERENCE_MS])
    wall, norm, outcome = speed.timed(lambda: (speed.checkpoint(), "done")[1])
    assert outcome == "done" and wall == pytest.approx(3.0)
    # each segment is scaled by the two probes that bound it
    assert norm == pytest.approx(1.0 / 2**0.5 + 2.0 / 2**0.5)
    assert speed.checkpoint() == (0.0, 0.0)  # outside an operation: nothing


def test_an_operation_timed_without_checkpoints_is_one_segment(monkeypatch):
    ticks = iter([0.0, 4.0, 4.0])
    monkeypatch.setattr("perfbench.hostspeed.clock", lambda: next(ticks))
    speed = FixedProbe([REFERENCE_MS, REFERENCE_MS])
    wall, norm, _ = speed.timed(speed.checkpoint, checkpoints=False)
    assert (wall, norm) == (pytest.approx(4.0), pytest.approx(4.0))
    assert speed.readings_ms == [REFERENCE_MS, REFERENCE_MS]


def test_least_stolen_parts_skip_late_generators():
    from perfbench.serving import CHUNKS, least_stolen

    parts = [{"steal_share": i / 100, "resolved": i % 3 != 0} for i in range(12)]
    chosen = least_stolen(parts)
    assert len(chosen) == CHUNKS
    assert [p["steal_share"] for p in chosen] == [0.01, 0.02, 0.04, 0.05, 0.07, 0.08]
    late = [{"steal_share": 0.5, "resolved": False}]
    assert least_stolen(late) == late  # none resolved: all of them


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_names_and_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path) and ".." not in path
    assert len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert not arg.startswith("/") and ".." not in arg

