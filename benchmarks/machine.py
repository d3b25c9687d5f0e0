"""Machine metadata for checked-in benchmark results.

Absolute benchmark numbers are hardware-bound; every saved results file
embeds this summary so numbers from different trajectories are
comparable (or visibly not).  The facts themselves come from
:func:`repro.obs.host_metadata` -- the same block a
:class:`~repro.obs.manifest.RunManifest` embeds -- so the text results
and the JSON manifests can never disagree about the host.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator

from repro.obs import host_metadata

# render order of the host-metadata keys in saved text results
_KEY_ORDER = ("platform", "python", "numpy", "cpu_count", "machine", "scipy")


def machine_summary() -> str:
    """One block of `key  value` lines describing the benchmark host."""
    meta = host_metadata()
    lines = []
    for key in _KEY_ORDER:
        value = meta.get(key)
        rendered = "(not installed)" if value is None else value
        lines.append(f"{key:<13} {rendered}")
    return "\n".join(lines)


@contextlib.contextmanager
def native_off() -> Iterator[None]:
    """Set ``REPRO_NATIVE=0`` for the block: engines built inside it run
    their Python/numpy tier (the probe, not a flag, picks the tier)."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved
