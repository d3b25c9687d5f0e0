"""serve-assign: ``python -m repro serve`` in its own process under open-loop load.

Set-up generates the Table 5 data set, fits a model on a 2,000-point
sample without labeling the rest, saves it and starts the server.  The
client then drives two keep-alive connections on a fixed schedule with
baskets the fit never sampled:

(a) single-point ``/assign`` at 200 req/s;
(b) saturation of both connections with ``/assign_batch`` requests of
    64 points (points answered per second), then a bisection over fixed
    offered single-point rates for the highest one whose tail latency
    stays within 25 ms, whose achieved rate is at least 99% of the offer
    and whose backlog does not grow;
(c) ``/assign_batch`` with 64 points per request at 50 req/s.

Phase (a), the saturation bursts and the ladder steps of (b) run in
alternating rounds: at least six, and more (for up to 1.25 times the
run's seconds) until six chunks of (a) and six bursts each ran while
the hypervisor took at most 3 % of the CPU time.  The p50 of (a) and
the saturation rate are medians over the six least-stolen of them.

Neither process is pinned: the server keeps the CPU affinity it starts
with (its CPU count is recorded in the provenance), so work the program
overlaps across threads shows in the figures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import data
from perfbench.hostspeed import HostSpeed, cpu_ticks, steal_share
from perfbench.loadgen import (
    HttpConnection,
    Request,
    evaluate_phase,
    run_open_loop,
    schedule,
)
from perfbench.metrics import units
from perfbench.probes import install_inprocess
from perfbench.spans import SpanRecorder
from perfbench.stats import summarize
from perfbench.workloads import (
    RunResult,
    ari_on_members,
    inprocess_layers,
    native_probe,
    span_details,
    timed_setup,
)

ROOT = Path(__file__).resolve().parent.parent
CONNECTIONS = 2
SINGLE_RATE = 200.0
BATCH_RATE = 50.0
BATCH_POINTS = 64
WARMUP_REQUESTS = 50
SINGLE_REQUESTS = 1200  # phase (a): enough for a p99 with ten samples beyond
SATURATION_RATE = 10_000.0  # far above capacity: every request is due at once
SATURATION_REQUESTS = 600   # over the first CHUNKS bursts, about 3 s on two vCPUs
CHUNKS = 6                  # phases (a) and (b1) alternate in this many chunks
BURST_REQUESTS = SATURATION_REQUESTS // CHUNKS
# held-out points one round can take at most: a chunk of (a), a burst and a ladder step
ROUND_POINTS = SINGLE_REQUESTS // CHUNKS + BURST_REQUESTS * BATCH_POINTS + 1000
LADDER_STEPS = 5
LADDER_STEP_S = 1.2
BATCH_REQUESTS = 150    # phase (c): 3 s at BATCH_RATE
# rounds go on (up to a time limit) until CHUNKS chunks of (a) and
# CHUNKS bursts of (b1) each ran while the hypervisor gave at most this
# share of the CPU time to other guests
STEAL_BOUND = 0.03
CHECKED_SINGLE = 200    # phase (a) replies compared with the labeler
CHECKED_BATCHES = 10    # phase (c) replies compared with the labeler
START_TIMEOUT_S = 60.0


@dataclass
class ServerProcess:
    proc: subprocess.Popen
    host: str
    port: int
    report: Path

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far (0 where /proc is missing)."""
        try:
            fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def start_server(model: Path, work: Path, traced: bool, tag: str) -> ServerProcess:
    report = work / f"server-{tag}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
           "--report", str(report)]
    if traced:
        cmd.append("--trace")
    cmd += ["--", "--model", str(model), "--port", "0"]
    with open(work / f"server-{tag}.err", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, text=True)
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                server = ServerProcess(proc, match.group(1), int(match.group(2)), report)
                # an answered request means the serve loop is running, so
                # its SIGTERM drain handler is installed too
                conn = HttpConnection(server.host, server.port, timeout=START_TIMEOUT_S)
                try:
                    status, _ = conn.get("/healthz")
                finally:
                    conn.close()
                if status == 200:
                    return server
                break
        elif proc.poll() is not None:
            break
    stop_server_quietly(proc)
    raise RuntimeError(f"server did not start; see {work / f'server-{tag}.err'}")


def stop_server_quietly(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def stop_server(server: ServerProcess, timeout: float = 30.0) -> dict[str, Any]:
    """SIGTERM, wait for the drain, return the launcher's report."""
    server.proc.send_signal(signal.SIGTERM)
    try:
        server.proc.wait(timeout)
    except subprocess.TimeoutExpired:
        pass
    stop_server_quietly(server.proc)
    return json.loads(server.report.read_text())


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

class PointPool:
    """Held-out baskets (never sampled by the fit), handed out without reuse."""

    def __init__(self, points: list[Any], truth: list[int]) -> None:
        self.points = points
        self.truth = truth
        self.next = 0

    def left(self) -> int:
        return len(self.points) - self.next

    def take(self, n: int) -> list[int]:
        if self.next + n > len(self.points):
            raise RuntimeError("held-out pool exhausted")
        out = list(range(self.next, self.next + n))
        self.next += n
        return out


def items(point: Any) -> list[str]:
    return sorted(str(i) for i in point)


def single_requests(pool: PointPool, rate: float, count: int, start: float,
                    tag: str) -> tuple[list[Request], list[int]]:
    idx = pool.take(count)
    dues = schedule(rate, count, start)
    reqs = [
        Request(due, "/assign",
                json.dumps({"point": items(pool.points[i])}).encode(), f"{tag}-{n}")
        for n, (due, i) in enumerate(zip(dues, idx))
    ]
    return reqs, idx


def batch_requests(pool: PointPool, rate: float, count: int, start: float,
                   tag: str) -> tuple[list[Request], list[list[int]]]:
    groups = [pool.take(BATCH_POINTS) for _ in range(count)]
    dues = schedule(rate, count, start)
    reqs = [
        Request(due, "/assign_batch",
                json.dumps({"points": [items(pool.points[i]) for i in g]}).encode(),
                f"{tag}-{n}")
        for n, (due, g) in enumerate(zip(dues, groups))
    ]
    return reqs, groups


def lead_in() -> float:
    """Schedule start: far enough ahead for the lane threads to be waiting."""
    return time.monotonic() + 0.05


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def serve_assign(seed: int, seconds: float, trace: bool, work: Path,
                 speed: HostSpeed) -> RunResult:
    from repro.core import RockPipeline
    from repro.serve.http.reload import load_versioned_model

    result = RunResult()
    model_path = work / "model.json"
    rec = SpanRecorder()
    patch = install_inprocess(rec) if trace else None

    def build() -> tuple[ServerProcess, Any, Any]:
        native_probe()
        basket = data.paper_basket(seed)
        pipeline = RockPipeline(k=10, theta=0.5, sample_size=2000,
                                min_cluster_size=20, seed=seed)
        fit = pipeline.fit(basket.transactions, label_remaining=False)
        pipeline.to_model(fit, basket.transactions).save(model_path)
        server = start_server(model_path, work, traced=False,
                              tag=f"setup-{len(servers)}")
        servers.append(server)
        return server, basket, fit

    servers: list[ServerProcess] = []  # every server started, for cleanup
    try:
        setup_s, setup_wall_s, (server, basket, fit) = timed_setup(
            speed, build, reps=1 if trace else 3,
            discard=lambda state: stop_server(state[0]),
        )
        if patch is not None:
            patch.restore()
        result.metrics["setup_s"] = setup_s
        result.details["setup_wall_s"] = setup_wall_s
        result.provenance["backends"] = dict(fit.backends)
        result.provenance["server_cpu_affinity"] = len(os.sched_getaffinity(server.proc.pid))

        sampled = set(fit.sample_indices)
        held_out = [i for i in range(len(basket.labels)) if i not in sampled]
        random.Random(data.derive_seed(seed, 5)).shuffle(held_out)
        pool = PointPool([basket.transactions[i] for i in held_out],
                         [basket.labels[i] for i in held_out])
        model, version = load_versioned_model(model_path)
        # the client holds the whole generated data set: keep the
        # collector from pausing the lane threads mid-request to walk it
        gc.collect()
        gc.freeze()

        if trace:
            # the untraced reference for trace.overhead_ratio: phase (a) on
            # the server started above, before the traced one replaces it
            untraced = _phase_single(server, pool, "u")[0]
            stop_server(server)
            server = start_server(model_path, work, True, "traced")
            servers.append(server)
        phases = _run_phases(server, pool, seconds, speed)
        report = stop_server(server)
        servers.clear()
    finally:
        for leftover in servers:
            stop_server_quietly(leftover.proc)

    _score(result, phases, pool, model, version, report)
    if trace:
        _fill_server_layers(result, rec, phases, report, untraced)
    return result


def _phase_single(server: ServerProcess, pool: PointPool, tag: str,
                  count: int = SINGLE_REQUESTS) -> tuple[dict[str, Any], list, list[int], float]:
    reqs, idx = single_requests(pool, SINGLE_RATE, count, lead_in(), tag)
    cpu0 = server.cpu_seconds()
    outcomes = run_open_loop(server.host, server.port, reqs, CONNECTIONS)
    cpu = server.cpu_seconds() - cpu0
    return evaluate_phase(outcomes, SINGLE_RATE), outcomes, idx, cpu


def _saturation_burst(server: ServerProcess, pool: PointPool, speed: HostSpeed,
                      tag: str) -> dict[str, Any]:
    """One burst of ``/assign_batch`` requests all due at once, run between
    host-speed probes: points/s at the reference speed (``rate``) and on
    the wall clock, the outcomes and the share of CPU time stolen."""
    reqs, _ = batch_requests(pool, SATURATION_RATE, BURST_REQUESTS, lead_in(), tag)
    ticks = cpu_ticks()
    wall, norm, outcomes = speed.timed(
        lambda: run_open_loop(server.host, server.port, reqs, CONNECTIONS))
    span = max(o.recv for o in outcomes) - min(o.start for o in outcomes)
    rate = BATCH_POINTS * sum(o.ok for o in outcomes) / span
    return {"rate": rate * wall / norm, "wall_rate": rate, "outcomes": outcomes,
            "steal_share": steal_share(ticks, cpu_ticks())}


def quiet(part: dict[str, Any]) -> bool:
    """A chunk or burst during which the hypervisor took at most
    ``STEAL_BOUND`` of the CPU time (and, for a chunk of phase (a),
    whose generator kept to its schedule)."""
    return part.get("resolved", True) and part["steal_share"] <= STEAL_BOUND


def least_stolen(parts: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The ``CHUNKS`` parts during which the hypervisor took the least CPU
    time, among those whose generator kept to its schedule (among all
    when none did)."""
    kept = [p for p in parts if p.get("resolved", True)] or parts
    return sorted(kept, key=lambda p: p["steal_share"])[:CHUNKS]


def combine_chunks(chunks: list[dict[str, Any]], outcomes: list) -> dict[str, Any]:
    """Phase (a) from its chunks: the median p50 of the least-stolen chunks.

    A chunk whose generator fell behind its bound measured the client
    rather than the server, and the more CPU time the hypervisor took
    during a chunk the more it measured the host: the p50 is the median
    over the ``CHUNKS`` least-stolen chunks whose generator kept to its
    schedule (over all chunks when none did, and the phase is then
    unresolved).  The tail is taken over every reply.
    """
    resolved = any(c["resolved"] for c in chunks)
    counted = least_stolen(chunks)
    failed = sum(1 for o in outcomes if not o.ok)
    lat = summarize([o.latency_ms for o in outcomes if o.ok] + [math.inf] * failed)
    return {
        "p50_ms": statistics.median(c["p50_ms"] for c in counted),
        "tail_ms": lat["tail"],
        "tail_label": lat["tail_label"],
        "n": lat["n"],
        "resolved": resolved,
        "chunks": len(chunks),
        "chunk_p50_ms": [round(c["p50_ms"], 3) for c in chunks],
        "chunk_steal_share": [round(c["steal_share"], 3) for c in chunks],
        "sustained": all(c["sustained"] for c in chunks),
        "generator_late_tail_ms": max(c["generator_late_tail_ms"] for c in chunks),
        "generator_late_label": chunks[0]["generator_late_label"],
    }


def _run_phases(server: ServerProcess, pool: PointPool, seconds: float,
                speed: HostSpeed) -> dict[str, Any]:
    phases: dict[str, Any] = {}
    warm, _ = single_requests(pool, SINGLE_RATE, WARMUP_REQUESTS, lead_in(), "w")
    phases["warmup"] = run_open_loop(server.host, server.port, warm, CONNECTIONS)

    # (a), (b1) and (b2) run in rounds, so a stretch of host contention
    # moves a few chunks of each and not a whole phase.  (a) is
    # single-point /assign at SINGLE_RATE; its p50 is the median of the
    # least-stolen chunks' p50s (see combine_chunks).  (b1) is a saturation
    # burst: /assign_batch requests all due at once keep both
    # connections busy, and points answered per second is the most the
    # server carries; its rate is the median over the least-stolen
    # bursts of their rate at the reference host speed (hostspeed.py).  (b2)
    # is one step of the ladder, a bisection over fixed offered
    # single-point rates for the highest one that meets the limit; every
    # step is a fresh fixed-rate schedule.  After CHUNKS rounds, rounds
    # go on while fewer than CHUNKS chunks or bursts ran with at most
    # STEAL_BOUND of the CPU stolen, for at most 1.25 * seconds in all.
    chunks, outcomes, idx, cpu, bursts, steps = [], [], [], 0.0, [], []
    lo = hi = SINGLE_RATE
    best = None
    started = time.monotonic()
    while len(chunks) < CHUNKS or (
        min(sum(map(quiet, chunks)), sum(map(quiet, bursts))) < CHUNKS
        and time.monotonic() - started < 1.25 * seconds
        and pool.left() >= ROUND_POINTS + BATCH_REQUESTS * BATCH_POINTS
    ):
        n = len(chunks)
        ticks = cpu_ticks()
        chunk, chunk_outcomes, chunk_idx, chunk_cpu = _phase_single(
            server, pool, f"a{n}", SINGLE_REQUESTS // CHUNKS)
        chunk["steal_share"] = steal_share(ticks, cpu_ticks())
        chunks.append(chunk)
        outcomes += chunk_outcomes
        idx += chunk_idx
        cpu += chunk_cpu
        bursts.append(_saturation_burst(server, pool, speed, f"s{n}"))
        if n == 0:
            service = statistics.median(o.recv - o.start for o in outcomes if o.ok)
            hi = max(2 * SINGLE_RATE, 1.2 * CONNECTIONS / service)
        if n < LADDER_STEPS:
            rate = math.sqrt(lo * hi)
            reqs, _ = single_requests(pool, rate, int(rate * LADDER_STEP_S), lead_in(),
                                      f"b{n}")
            step = evaluate_phase(
                run_open_loop(server.host, server.port, reqs, CONNECTIONS), rate)
            steps.append(step)
            if step["sustained"]:
                lo, best = rate, step
            else:
                hi = rate
    single = combine_chunks(chunks, outcomes)
    phases["single"] = (single, outcomes, idx, cpu)
    counted = least_stolen(bursts)
    phases["saturation"] = (
        statistics.median(b["rate"] for b in counted),
        statistics.median(b["wall_rate"] for b in counted),
        [o for b in bursts for o in b["outcomes"]],
        [round(b["steal_share"], 3) for b in bursts],
    )
    if best is None and single["sustained"]:
        best = single
    phases["ladder"] = (steps, best)

    count = BATCH_REQUESTS
    reqs, groups = batch_requests(pool, BATCH_RATE, count, lead_in(), "c")
    outcomes_c = run_open_loop(server.host, server.port, reqs, CONNECTIONS)
    phases["batch"] = (evaluate_phase(outcomes_c, BATCH_RATE), outcomes_c, groups)

    conn = HttpConnection(server.host, server.port, timeout=10.0)
    try:
        status, body = conn.get("/model")
    finally:
        conn.close()
    phases["model"] = json.loads(body) if status == 200 else {}
    return phases


def _score(result: RunResult, phases: dict[str, Any], pool: PointPool, model: Any,
           version: str, report: dict[str, Any]) -> None:
    single, outcomes, idx, cpu = phases["single"]
    steps, best = phases["ladder"]
    batch, outcomes_c, groups = phases["batch"]
    labeler = model.labeler()

    saturation_pps, saturation_wall_pps, saturated, burst_steal = phases["saturation"]
    every = list(phases["warmup"]) + list(outcomes) + list(saturated) + list(outcomes_c)
    for o in every:
        result.operation(o.ok)
    for step in steps:
        result.attempted += step["n"]
        result.failed += step["failed"]

    served: dict[int, int] = {}
    versions_ok = True
    for o, i in zip(outcomes, idx):
        if o.ok:
            reply = json.loads(o.body)
            served[i] = reply["label"]
            versions_ok &= reply["model_version"] == version
    for o, group in zip(outcomes_c, groups):
        if o.ok:
            reply = json.loads(o.body)
            served.update(zip(group, reply["labels"]))
            versions_ok &= reply["model_version"] == version
    checked = list(idx[:CHECKED_SINGLE])
    checked += [i for g in groups[:CHECKED_BATCHES] for i in g]
    mismatched = sum(
        1 for i in checked if i not in served or served[i] != labeler.assign(pool.points[i])
    )
    result.check("HTTP labels == RockModel.labeler().assign", mismatched == 0,
                 f"{mismatched} of {len(checked)} differ")
    result.check("model_version of every reply == artifact version", versions_ok, version)
    for name, phase in (("phase_a", single), ("phase_c", batch)):
        result.details[name] = (
            ("resolved" if phase["resolved"] else "UNRESOLVED")
            + f": generator late {phase['generator_late_tail_ms']:.2f} ms "
            f"({phase['generator_late_label']})"
        )
    result.details["phase_a_chunk_p50_ms"] = single["chunk_p50_ms"]
    result.details["phase_a_chunk_steal_share"] = single["chunk_steal_share"]
    result.details["saturation_burst_steal_share"] = burst_steal

    keys = sorted(served)
    result.metrics.update(
        latency_p50_ms=single["p50_ms"],
        throughput_per_s=saturation_pps,
        peak_rss_mb=report["peak_rss_mb"],
        ari=ari_on_members([pool.truth[i] for i in keys], [served[i] for i in keys]),
    )
    result.provenance["backends"]["assign"] = phases["model"].get("assign_backend")
    result.details.update(
        assign_p50_ms=single["p50_ms"],
        assign_tail_ms=single["tail_ms"],
        assign_tail_label=single["tail_label"],
        assign_n=single["n"],
        batch_saturation_points_per_s=saturation_pps,
        batch_saturation_points_per_wall_s=saturation_wall_pps,
        assign_max_rps=None if best is None else best["achieved_rate"],
        batch_p50_ms=batch["p50_ms"],
        batch_tail_ms=batch["tail_ms"],
        batch_tail_label=batch["tail_label"],
        batch_n=batch["n"],
        server_cpu_ms_per_request=1000.0 * cpu / max(1, single["n"]),
        ladder=[
            {k: (round(v, 2) if isinstance(v, float) else v) for k, v in step.items()}
            for step in steps
        ],
    )


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fill_server_layers(result: RunResult, rec: SpanRecorder, phases: dict[str, Any],
                        report: dict[str, Any], untraced: dict[str, Any]) -> None:
    single, outcomes, _, cpu = phases["single"]
    batch = phases["batch"][0]
    layers = inprocess_layers(rec)
    rows = report["requests"]
    stages: dict[str, list[float]] = {k: [] for k in (
        "parse", "decode", "queue_wait", "engine", "encode", "return", "unaccounted")}
    total_ms = 0.0
    unaccounted_ms = 0.0
    for o in outcomes:
        row = rows.get(o.rid)
        if not o.ok or row is None or "flush_start" not in row:
            continue
        ms = {
            "parse": row["parsed"] - o.sent,
            "decode": row.get("decode", 0.0),
            "queue_wait": row["flush_start"] - row["submit"],
            "engine": row["flush_end"] - row["flush_start"],
            "encode": row.get("encode", 0.0),
            "return": o.recv - row["rendered"],
        }
        ms = {k: v * 1000.0 for k, v in ms.items()}
        whole = o.latency_ms
        ms["unaccounted"] = whole - o.late_ms - sum(ms.values())
        for key, value in ms.items():
            stages[key].append(value)
        total_ms += whole
        unaccounted_ms += ms["unaccounted"]
    for key, values in stages.items():
        layers[f"http.{key}_ms"] = _median_or_zero(values)

    names = {s["name"] for s in report["spans"]}
    engine = [s for s in report["spans"] if s["name"] == "serve.engine"]
    counters = report["registry"].get("counters", {})
    hist = report["registry"].get("histograms", {}).get("http.batcher.batch_size", {})
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    layers.update({
        "serve.engine.s": sum(s["end"] - s["start"] for s in engine),
        "serve.engine.calls": len(engine),
        "serve.engine.points_per_call": (
            sum(s["attrs"].get("points", 0) for s in engine) / len(engine) if engine else 0.0),
        "serve.engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.index.build_s": layers["serve.index.build_s"] + sum(
            s["end"] - s["start"] for s in report["spans"] if s["name"] == "serve.index.build"),
        "serve.model.load_s": layers["serve.model.load_s"] + sum(
            s["end"] - s["start"] for s in report["spans"] if s["name"] == "serve.model.load"),
        "http.batcher.batch_size": (
            hist.get("sum", 0.0) / hist["count"] if hist.get("count") else 0.0),
        "http.batcher.flushes": counters.get("http.batcher.flushes", 0),
        "http.rejected": counters.get("http.rejected", 0),
        "http.batch_p50_ms": batch["p50_ms"],
        "server.cpu_ms_per_request": 1000.0 * cpu / max(1, single["n"]),
        "loadgen.late_ms": single["generator_late_tail_ms"],
        "trace.overhead_ratio": single["p50_ms"] / untraced["p50_ms"] - 1.0,
        "unaccounted_share": unaccounted_ms / total_ms if total_ms else 0.0,
    })
    result.layers = {name: layers.get(name, 0.0) for name in units("per_layer")}
    result.details["server_span_names"] = sorted(names)
    span_details(result, rec)
    result.details["untraced_assign_p50_ms"] = untraced["p50_ms"]
