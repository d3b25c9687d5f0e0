"""Versioned model loading and hot reload with atomic swap.

The serving process must pick up a re-fit model without dropping a
request.  The mechanism:

* :func:`load_versioned_model` reads a :class:`~repro.serve.RockModel`
  artifact, verifies its sha256 content checksum (corrupt files never
  reach serving), and derives the **model version** from the content
  (:func:`~repro.serve.model.model_version`) -- two artifacts serve
  under the same version exactly when they differ at most in their
  wall-clock fit timings, and the watcher keeps serving the engine it
  has when a rewrite carries the same version;
* :class:`ServedModel` is an immutable bundle (model, engine, version,
  load time).  The holder's ``current`` attribute is replaced in a
  single assignment, so any reader -- the batcher snapshotting an
  engine for a flush, ``GET /model`` -- sees either the old bundle or
  the new one, never a mix, and requests already holding the old
  bundle drain on the old model;
* :class:`ModelWatcher` polls the artifact path from a side thread
  (``stat`` only in steady state; the load itself also runs on that
  thread, off the event loop), swaps on a changed ``(mtime_ns, size)``
  signature, and records reload counters.  A failed reload keeps the
  old model serving and surfaces the error on ``/healthz``.

The stat signature alone is not sufficient under the frequent-republish
pattern stream mode creates: a same-size in-place rewrite landing
within the filesystem's mtime granularity leaves ``(mtime_ns, size)``
unchanged and would be silently missed.  The watcher therefore treats
an unchanged-but-*recent* signature (mtime within
``rewrite_window_seconds`` of now) as suspicious and confirms identity
by re-hashing the artifact's embedded-checksum content; once the mtime
ages past the window, polls go back to stat-only.

Two clocks are kept deliberately: :attr:`ServedModel.loaded_monotonic`
is the basis for all age/staleness math (immune to wall-clock steps),
while :attr:`ServedModel.loaded_unix` exists for display only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.serve.engine import AssignmentEngine
from repro.serve.model import RockModel, read_artifact

__all__ = ["ModelWatcher", "ServedModel", "load_versioned_model"]


def _read_artifact(path: str | Path) -> tuple[RockModel, str, str]:
    """Load and checksum-verify an artifact: ``(model, version, full digest)``."""
    data, digest, version = read_artifact(path)
    return RockModel.from_dict(data), version, digest


def _artifact_digest(path: Path) -> str:
    """The content digest alone (the cheap identity probe for rewrites)."""
    return read_artifact(path)[1]


def load_versioned_model(path: str | Path) -> tuple[RockModel, str]:
    """Load and checksum-verify an artifact; returns ``(model, version)``.

    The version is :func:`~repro.serve.model.model_version`: stable
    across re-saves and refits that differ only in their fit timings,
    different for any other content change.
    """
    model, version, _digest = _read_artifact(path)
    return model, version


@dataclass(frozen=True)
class ServedModel:
    """One immutable (model, engine, version) generation.

    ``loaded_monotonic`` is the staleness basis (compare against
    :func:`time.monotonic`); ``loaded_unix`` is wall clock for display
    and never enters age arithmetic.  ``digest`` is the full content
    sha256 backing the rewrite-identity check.
    """

    model: RockModel
    engine: AssignmentEngine
    version: str
    loaded_unix: float
    source_signature: tuple[int, int] | None = None  # (mtime_ns, size)
    loaded_monotonic: float = 0.0
    digest: str = ""

    def age_seconds(self, now_monotonic: float | None = None) -> float:
        """Monotonic model age; never negative, immune to clock steps."""
        now = time.monotonic() if now_monotonic is None else now_monotonic
        return max(0.0, now - self.loaded_monotonic)


def _file_signature(path: Path) -> tuple[int, int]:
    stat = path.stat()
    return (stat.st_mtime_ns, stat.st_size)


class ModelWatcher:
    """Owns the live :class:`ServedModel` and swaps it on file change.

    ``current`` is read lock-free (one attribute load); all mutation
    happens behind ``_swap_lock`` on the watcher thread (or via
    :meth:`check_once`, which tests and the server's startup call
    directly).
    """

    def __init__(
        self,
        path: str | Path,
        registry: MetricsRegistry | None = None,
        poll_seconds: float = 1.0,
        rewrite_window_seconds: float = 2.0,
    ) -> None:
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        if rewrite_window_seconds < 0:
            raise ValueError("rewrite_window_seconds must be non-negative")
        self.path = Path(path)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.poll_seconds = poll_seconds
        self.rewrite_window_seconds = rewrite_window_seconds
        self._reloads = self.registry.counter("http.reload.count")
        self._reload_errors = self.registry.counter("http.reload.errors")
        self._content_checks = self.registry.counter("http.reload.content_checks")
        self._swap_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.last_error: str | None = None
        self.current: ServedModel = self._load(None)

    def _load(self, previous: ServedModel | None) -> ServedModel:
        signature = _file_signature(self.path)
        model, version, digest = _read_artifact(self.path)
        if previous is not None and version == previous.version:
            # the same model re-saved (a refit's fit timings differ):
            # keep its engine, note the new file
            return replace(previous, source_signature=signature, digest=digest)
        # every generation shares the one registry, so serve.* counters
        # keep accumulating across swaps instead of resetting; the
        # engine builds its AssignmentIndex here, once per generation --
        # batches snapshot a whole ServedModel, so a flush never mixes
        # an old index with a new model
        engine = AssignmentEngine(model, registry=self.registry)
        return ServedModel(
            model=model,
            engine=engine,
            version=version,
            loaded_unix=time.time(),
            source_signature=signature,
            loaded_monotonic=time.monotonic(),
            digest=digest,
        )

    # -- polling ------------------------------------------------------------

    def _signature_suspicious(self, signature: tuple[int, int]) -> bool:
        """Whether an unchanged stat signature could still hide a rewrite.

        A same-size in-place rewrite within the filesystem's mtime
        granularity leaves ``(mtime_ns, size)`` equal.  That is only
        possible while the mtime is *recent*; once it ages past the
        rewrite window no new write can share it, and polling is
        stat-only again.
        """
        mtime_ns, _size = signature
        return time.time() - mtime_ns / 1e9 <= self.rewrite_window_seconds

    def check_once(self) -> bool:
        """Poll the artifact now; returns True when a swap happened.

        An unchanged stat signature is trusted only once the mtime has
        aged past ``rewrite_window_seconds``; a recent one is confirmed
        against the current generation's content digest, catching
        same-size rewrites inside the mtime granularity.  A vanished
        file or failed load keeps the previous model and records the
        error; serving is never interrupted by a bad write.
        """
        with self._swap_lock:
            try:
                signature = _file_signature(self.path)
                if signature == self.current.source_signature:
                    if not self._signature_suspicious(signature):
                        return False
                    self._content_checks.inc()
                    if _artifact_digest(self.path) == self.current.digest:
                        return False
                served = self._load(self.current)
            except (OSError, ValueError, KeyError) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._reload_errors.inc()
                return False
            swapped = served.version != self.current.version
            # single attribute assignment = the atomic swap; in-flight
            # requests keep the bundle they already read
            self.current = served
            self.last_error = None
            if swapped:
                self._reloads.inc()
            return swapped

    def start(self) -> None:
        """Start the polling thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._poll_loop, name="rock-model-watcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop polling and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            self.check_once()
