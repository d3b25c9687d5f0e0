"""The per-run artifact: span tree + metrics + host metadata + config.

A :class:`RunManifest` is the single JSON file a fit, serve run, or
benchmark leaves behind: what ran (``name`` + ``config``), where it ran
(:func:`host_metadata`), how long each phase took (the span tree), and
every counter that moved (the registry snapshot).  Persistence follows
the library's no-pickle conventions: plain JSON, explicit format name
and version, hard rejection of mismatched versions -- the same contract
as :class:`~repro.serve.model.RockModel`.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from repro.obs.trace import Span, Tracer

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RunManifest",
    "host_metadata",
]

MANIFEST_FORMAT = "rock-run-manifest"
MANIFEST_VERSION = 1


def host_metadata() -> dict[str, Any]:
    """Facts about the machine a run executed on.

    The single source of the host block embedded in manifests and in
    checked-in benchmark results (``benchmarks/machine.py`` renders its
    text summary from this) -- absolute numbers are hardware-bound, so
    every artifact says where it came from.  ``native`` is the
    :func:`repro.native.backend_info` probe state: which kernel tier
    the run could use, or the reason it fell back to the reference
    paths.
    """
    meta: dict[str, Any] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    meta["mem_total_bytes"], meta["mem_available_bytes"] = host_memory()
    try:
        import numpy

        meta["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        meta["numpy"] = None
    try:
        from scipy import __version__ as scipy_version

        meta["scipy"] = scipy_version
    except ImportError:  # pragma: no cover - scipy present in dev envs
        meta["scipy"] = None
    from repro.native import backend_info

    meta["native"] = backend_info()
    return meta


def host_memory() -> tuple[int | None, int | None]:
    """``(total, available)`` physical memory in bytes, or ``None``s.

    Parsed from ``/proc/meminfo`` (Linux); on platforms without it --
    or with an unreadable/odd one -- both slots degrade to ``None``
    rather than raising, so manifests stay writable everywhere.  The
    available figure feeds the fit's default memory budget
    (:func:`repro.core.neighbors.resolve_memory_budget`).
    """
    total: int | None = None
    available: int | None = None
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                if key == "MemTotal":
                    total = int(rest.split()[0]) * 1024
                elif key == "MemAvailable":
                    available = int(rest.split()[0]) * 1024
                if total is not None and available is not None:
                    break
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return None, None
    return total, available


@dataclass
class RunManifest:
    """Everything one run leaves behind, JSON-round-trippable.

    Attributes
    ----------
    name:
        What ran (``"fit"``, ``"assign"``, a benchmark name, ...).
    config:
        The run's parameters, free-form but JSON-plain.
    host:
        :func:`host_metadata`-shaped machine facts.
    metrics:
        A :meth:`~repro.obs.registry.MetricsRegistry.snapshot` dict.
    spans:
        The serialised span tree
        (:meth:`~repro.obs.trace.Tracer.to_dicts`).
    created_unix:
        Seconds since the epoch when the manifest was assembled.
    """

    name: str
    config: dict[str, Any] = field(default_factory=dict)
    host: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    created_unix: float | None = None

    @classmethod
    def from_tracer(
        cls,
        name: str,
        tracer: Tracer,
        config: dict[str, Any] | None = None,
        host: dict[str, Any] | None = None,
    ) -> "RunManifest":
        """Bundle a tracer's span tree and registry into a manifest."""
        return cls(
            name=name,
            config=dict(config or {}),
            host=host_metadata() if host is None else dict(host),
            metrics=tracer.registry.snapshot(),
            spans=tracer.to_dicts(),
            created_unix=time.time(),
        )

    # -- queries ------------------------------------------------------------

    def span_names(self) -> set[str]:
        """Every span name in the manifest's tree, flattened."""
        return {
            span.name
            for root in self.spans
            for span in Span.from_dict(root).iter_spans()
        }

    def find_span(self, name: str) -> dict[str, Any] | None:
        """The first span dict with this name, depth-first, or None."""

        def _walk(span: dict[str, Any]) -> dict[str, Any] | None:
            if span.get("name") == name:
                return span
            for child in span.get("children", []):
                found = _walk(child)
                if found is not None:
                    return found
            return None

        for root in self.spans:
            found = _walk(root)
            if found is not None:
                return found
        return None

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "name": self.name,
            "created_unix": self.created_unix,
            "config": dict(self.config),
            "host": dict(self.host),
            "metrics": self.metrics,
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"expected format {MANIFEST_FORMAT!r}, got {data.get('format')!r}"
            )
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported {MANIFEST_FORMAT} version {version!r} "
                f"(this library reads version {MANIFEST_VERSION})"
            )
        created = data.get("created_unix")
        return cls(
            name=str(data["name"]),
            config=dict(data.get("config", {})),
            host=dict(data.get("host", {})),
            metrics=dict(data.get("metrics", {})),
            spans=list(data.get("spans", [])),
            created_unix=None if created is None else float(created),
        )

    def save(self, target: str | Path | TextIO) -> None:
        """Write the manifest as JSON to a path or open text stream."""
        payload = self.to_dict()
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        else:
            json.dump(payload, target, indent=2)

    @classmethod
    def load(cls, source: str | Path | TextIO) -> "RunManifest":
        """Read a manifest saved by :meth:`save`."""
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(source)
        return cls.from_dict(data)
