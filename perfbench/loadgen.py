"""Open-loop HTTP load over a fixed number of keep-alive connections.

Requests are due on a fixed schedule (``start + i / rate``) whatever
the server does.  Request ``i`` goes out on connection ``i % C``; a
connection carries one request at a time, so a slow reply delays the
next request on that connection, and latency is timed from the *due*
time to count that wait.  How late the generator itself ran -- sending
after a request was due although its connection was already free -- is
kept apart: a phase whose generator fell behind by more than
``GENERATOR_LATE_BOUND_MS`` is unresolved, not a latency figure.
"""

from __future__ import annotations

import math
import socket
import statistics
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from perfbench.stats import summarize

GENERATOR_LATE_BOUND_MS = 5.0   # generator tail lateness that voids a phase
BACKLOG_GROWTH_BOUND_MS = 5.0   # lateness rise across a step that means backlog
LATENCY_LIMIT_MS = 25.0         # tail limit for the sustainable-rate ladder
MIN_ACHIEVED_SHARE = 0.99


@dataclass(frozen=True)
class Request:
    due: float
    path: str
    body: bytes
    rid: str


@dataclass
class Outcome:
    """One request's timeline on the client's monotonic clock."""

    rid: str
    due: float
    free_at: float          # when its connection finished the previous request
    start: float = 0.0      # send began
    sent: float = 0.0       # send finished
    recv: float = 0.0       # whole response read
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1000.0

    @property
    def generator_late_ms(self) -> float:
        """Send delay not explained by the connection being busy."""
        return max(0.0, self.start - max(self.due, self.free_at)) * 1000.0

    @property
    def late_ms(self) -> float:
        """Total send delay past the due time (includes a busy connection)."""
        return max(0.0, self.start - self.due) * 1000.0


def schedule(rate: float, count: int, start: float) -> list[float]:
    """Due times of ``count`` requests at a fixed ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + i / rate for i in range(count)]


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client over one socket."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, path: str, body: bytes, rid: str) -> None:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nX-Request-Id: {rid}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)

    def get(self, path: str) -> tuple[int, bytes]:
        self.sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        return self.read_response()

    def read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._buf += self._recv_chunk()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(rest) < length:
            rest += self._recv_chunk()
        self._buf = rest[length:]
        return status, rest[:length]

    def _recv_chunk(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk


def _drive_lane(
    host: str,
    port: int,
    lane: Sequence[Request],
    out: list[Outcome],
    timeout: float,
    clock: Callable[[], float],
) -> None:
    conn: HttpConnection | None = None
    free_at = clock()
    try:
        for req in lane:
            wait = req.due - clock()
            if wait > 0:
                time.sleep(wait)
            outcome = Outcome(rid=req.rid, due=req.due, free_at=free_at)
            outcome.start = clock()
            try:
                if conn is None:
                    conn = HttpConnection(host, port, timeout)
                conn.send(req.path, req.body, req.rid)
                outcome.sent = clock()
                outcome.status, outcome.body = conn.read_response()
            except (OSError, ValueError) as exc:  # timeouts, resets, bad replies
                outcome.error = f"{type(exc).__name__}: {exc}"
                if conn is not None:
                    conn.close()
                conn = None
            outcome.recv = free_at = clock()
            if not outcome.sent:
                outcome.sent = outcome.recv
            out.append(outcome)
    finally:
        if conn is not None:
            conn.close()


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int = 2,
    timeout: float = 10.0,
    clock: Callable[[], float] = time.monotonic,
) -> list[Outcome]:
    """Send ``requests`` on schedule over ``connections`` lanes; outcomes by due time."""
    lanes = [list(requests[i::connections]) for i in range(connections)]
    results: list[list[Outcome]] = [[] for _ in lanes]
    threads = [
        threading.Thread(
            target=_drive_lane,
            args=(host, port, lane, results[i], timeout, clock),
            daemon=True,
        )
        for i, lane in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = [o for lane in results for o in lane]
    merged.sort(key=lambda o: o.due)
    return merged


def backlog_growth_ms(outcomes: Sequence[Outcome]) -> float:
    """Median send lateness of the last third minus that of the first third."""
    if len(outcomes) < 6:
        return 0.0
    third = len(outcomes) // 3
    first = statistics.median(o.late_ms for o in outcomes[:third])
    last = statistics.median(o.late_ms for o in outcomes[-third:])
    return last - first


def evaluate_phase(
    outcomes: Sequence[Outcome], offered_rate: float
) -> dict[str, float | int | str | bool]:
    """Latency summary and the sustainable-rate verdict for one fixed-rate phase.

    Failed requests count as missing the latency limit (they enter the
    sample as infinite latency).  ``resolved`` is False when the
    generator's own tail lateness exceeded ``GENERATOR_LATE_BOUND_MS``.
    """
    if not outcomes:
        raise ValueError("no outcomes")
    ok = [o for o in outcomes if o.ok]
    failed = len(outcomes) - len(ok)
    latencies = [o.latency_ms for o in ok] + [math.inf] * failed
    lat = summarize(latencies)
    gen = summarize([o.generator_late_ms for o in outcomes])
    span = max(o.recv for o in outcomes) - min(o.due for o in outcomes)
    achieved = len(ok) / span if span > 0 else 0.0
    growth = backlog_growth_ms(outcomes)
    resolved = gen["tail"] <= GENERATOR_LATE_BOUND_MS
    sustained = (
        resolved
        and lat["tail"] <= LATENCY_LIMIT_MS
        and achieved >= MIN_ACHIEVED_SHARE * offered_rate
        and growth <= BACKLOG_GROWTH_BOUND_MS
    )
    return {
        "offered_rate": offered_rate,
        "achieved_rate": achieved,
        "n": lat["n"],
        "failed": failed,
        "p50_ms": lat["p50"],
        "tail_ms": lat["tail"],
        "tail_label": lat["tail_label"],
        "generator_late_tail_ms": gen["tail"],
        "generator_late_label": gen["tail_label"],
        "backlog_growth_ms": growth,
        "resolved": resolved,
        "sustained": sustained,
    }
