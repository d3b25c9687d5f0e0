"""Native-speed kernels for the fit, merge and assignment hot loops.

``repro.native`` provides drop-in native implementations of

* the fused neighbor+link block kernel (score a row block of the
  transaction similarity matrix and threshold it), replacing the
  scipy product of :mod:`repro.parallel.links`, and the Figure 4 link
  count of the resulting neighbor lists, one output row at a time
  (``link_rows``); and
* the component engine's whole cluster phase: the connected
  components of the cluster link graph (``component_labels``, a
  union-find), then the lazy-heap agglomeration of
  :func:`repro.core.merge.component_merge_stream` on every component,
  on flat typed arrays with binary heaps instead of ``heapq`` tuples,
  and the k-way replay of their streams, in one call; and
* the §4.6 assignment hot loop (``assign_block``): candidate gather
  over the prefix postings of the
  :class:`repro.serve.index.AssignmentIndex`, exact verification,
  Jaccard threshold test and best-cluster argmax fused into one pass
  per query point.  It is the ``native`` tier of
  :meth:`repro.serve.index.AssignmentIndex.tier`, which the serving
  engine, the stream labeler and the pipeline's labeling scan
  (:meth:`repro.core.labeling.ClusterLabeler.assign_all`) all score
  through; without it that index picks its ``dense`` or ``pruned``
  numpy tier.

No caller forces a tier.  The fit planner
(:func:`repro.core.pipeline.plan_fit`) runs the fused kernel for every
fit the kernel supports that is past its memory budget or whose points
share few items; the merge engine
(:func:`repro.core.merge.merge_engine`) and the assignment tier
(:meth:`repro.serve.index.AssignmentIndex.tier`, at ``theta > 0``) run
native whenever :func:`get_kernels` returns the probed namespace.  All are
**bit-identical** to the reference
paths: same survivor sets, same merge history with bitwise equal
goodness floats, same ``heap_ops`` accounting, same assignment labels
and scores (property-tested in ``tests/test_native_kernels.py``).

The kernels live in one small C file (``kernels.c``) compiled on
demand with the system C compiler and bound through :mod:`ctypes`
(:mod:`repro.native.cext`).  There is no build-time dependency: the
shared object is built once into a user cache directory keyed by the
source hash, so steady-state runs pay one ``dlopen``.

A probe *runs* every kernel on a tiny smoke problem before the tier is
declared available, so a broken toolchain can never take down a fit.
When the probe passes, every stage runs native silently; when it
fails -- no compiler, a failed build, a smoke-test
mismatch -- every caller runs the existing pure-Python/numpy paths and
:func:`backend_info` records why under ``"reason"``.

Environment overrides:

``REPRO_NATIVE=0`` (or ``off``/``false``/``no``)
    The kill switch: disable the native kernels entirely; every stage
    then runs its Python/numpy path without a warning.  Any other
    value, ``REPRO_NATIVE=1`` included, leaves the default on.
``CC``
    The C compiler to build with (default: the first of ``cc``,
    ``gcc``, ``clang`` on ``PATH``).
``REPRO_NATIVE_CACHE=<dir>``
    Where compiled shared objects are cached
    (default ``$XDG_CACHE_HOME/repro-native``).
"""

from __future__ import annotations

import os
from typing import Any

__all__ = [
    "available_backend",
    "backend_info",
    "get_kernels",
    "native_available",
]

# the probe result, cached per process: empty = not yet probed, else
# "kernels" (the namespace, or None when unusable) and "reason" (why
# not, or None)
_PROBE: dict[str, Any] = {}


def _disabled() -> bool:
    value = os.environ.get("REPRO_NATIVE", "").strip().lower()
    return value in ("0", "off", "false", "no")


def _smoke_test(kernels: Any) -> None:
    """Run every kernel on a tiny problem; raises when the tier is broken.

    This is what makes the probe trustworthy: the tier is advertised
    only after it has actually compiled and produced sane output, so
    toolchain failures degrade to the Python paths instead of erroring
    mid-fit.
    """
    import numpy as np

    # two transactions sharing 2 of 3 items: jaccard 0.5.  score_block
    # emits only the upper triangle (row 0 -> [1], row 1 -> []);
    # mirror_neighbors rebuilds the full symmetric lists.
    indptr = np.array([0, 3, 6], dtype=np.int64)
    indices = np.array([0, 1, 2, 1, 2, 3], dtype=np.int32)
    t_indptr = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    t_indices = np.array([0, 0, 1, 0, 1, 1], dtype=np.int32)
    sizes = np.array([3, 3], dtype=np.int32)
    upper_indptr, upper_indices = kernels.score_block(
        indptr, indices, t_indptr, t_indices, sizes, 2, 0, 2, 0.5, 0
    )
    if upper_indptr.tolist() != [0, 1, 1] or upper_indices.tolist() != [1]:
        raise RuntimeError("score_block smoke test mismatch")
    full_indptr, full_indices = kernels.mirror_neighbors(
        upper_indptr, upper_indices, 2
    )
    if full_indptr.tolist() != [0, 1, 2] or full_indices.tolist() != [1, 0]:
        raise RuntimeError("mirror_neighbors smoke test mismatch")
    # links of 0-1, 0-2, 1-2, 1-3, 2-3 plus the isolated point 4.  Row
    # 2's cursor over 3's list [1, 2] must skip both entries (l <= 2).
    codes, counts = kernels.link_rows(
        np.array([0, 2, 5, 8, 10, 10], dtype=np.int64),
        np.array([1, 2, 0, 2, 3, 0, 1, 3, 1, 2], dtype=np.int32),
        5,
    )
    if codes.tolist() != [1, 2, 3, 7, 8, 13] or counts.tolist() != [1, 1, 2, 2, 1, 1]:
        raise RuntimeError("link_rows smoke test mismatch")
    # two components, naive goodness.  Component 0 = clusters {0, 3, 4}
    # (local pairs 0-1 count 2, 1-2 count 1), component 1 = {1, 2}
    # (count 1).  After 0+3 -> 5, both stream heads have goodness 1:
    # the replay must take u = 1 (component 1) before u = 4, so 1+2 -> 6
    # precedes 4+5 -> 7.  k = 1 is out of reach: stopped early.
    run = kernels.merge_components(
        np.array([0, 3, 5], dtype=np.int64),          # slot_offsets
        np.array([0, 2, 3], dtype=np.int64),          # pair_offsets
        np.ones(5, dtype=np.int64),                   # sizes
        np.array([0, 3, 4, 1, 2], dtype=np.int64),    # global_ids
        np.array([0, 1, 0], dtype=np.int64),          # pair_lo
        np.array([1, 2, 1], dtype=np.int64),          # pair_hi
        np.array([2.0, 1.0, 1.0], dtype=np.float64),  # pair_count
        np.zeros(1, dtype=np.float64),
        1, 1, 5,
    )
    if (
        run.left.tolist() != [0, 1, 4]
        or run.right.tolist() != [3, 2, 5]
        or run.goodness.tolist() != [2.0, 1.0, 1.0]
        or run.sizes.tolist() != [2, 2, 3]
        or run.roots.tolist() != [7, 6, 6, 7, 7]
        or not run.stopped_early
    ):
        raise RuntimeError("merge_components smoke test mismatch")
    # components {0}, {1, 3, 4}, {2, 5}, numbered by smallest member;
    # the edge 4-1 runs high to low
    components = kernels.component_labels(
        6,
        np.array([4, 2, 1], dtype=np.int64),
        np.array([1, 5, 3], dtype=np.int64),
    )
    if components.tolist() != [0, 1, 2, 1, 1, 2]:
        raise RuntimeError("component_labels smoke test mismatch")
    # rank-numbered items e=0 < b=1 < c=2 < d=3 at theta 0.6; rep 0 =
    # {e,b,c,d} (cluster 0, prefix {e,b}), rep 1 = {c,d} (cluster 1,
    # prefix {c}).  Point {a,b,c,d} (a out of vocabulary) meets rep 0
    # at exactly 3/5 == 0.6 through b alone -- the last item of both
    # prefixes, so a prefix one item short on either side misses it;
    # the empty point is an outlier; point {c,d} equals rep 1.
    labels, best, verified = kernels.assign_block(
        np.array([0, 3, 3, 5], dtype=np.int64),       # q_indptr
        np.array([3, 1, 2, 3, 2], dtype=np.int32),    # q_items
        np.array([4, 0, 2], dtype=np.int64),          # q_sizes
        np.array([0, 1, 2, 3, 3], dtype=np.int64),    # pre_indptr
        np.array([0, 0, 1], dtype=np.int32),          # pre_reps
        np.array([0, 4, 6], dtype=np.int64),          # rep_indptr
        np.array([0, 1, 2, 3, 2, 3], dtype=np.int32), # rep_items
        np.array([0, 1], dtype=np.int32),             # rep_cluster
        np.array([1.0, 1.0], dtype=np.float64),       # normalisers
        0.6,
    )
    if (
        labels.tolist() != [0, -1, 1]
        or best.tolist() != [1.0, 0.0, 1.0]
        or verified != 2
    ):
        raise RuntimeError("assign_block smoke test mismatch")


def _probe() -> Any | None:
    if not _PROBE:
        kernels: Any | None = None
        reason: str | None = None
        try:
            from repro.native import cext

            kernels = cext.load_kernels()
            _smoke_test(kernels)
        except Exception as exc:
            kernels = None
            reason = str(exc) or type(exc).__name__
        _PROBE.update(kernels=kernels, reason=reason)
    return _PROBE["kernels"]


def get_kernels() -> Any | None:
    """The probed C kernel namespace, or ``None`` when it is unusable
    or ``REPRO_NATIVE`` is off."""
    if _disabled():
        return None
    return _probe()


def available_backend() -> str | None:
    """Name of the backend :func:`get_kernels` would return, or ``None``."""
    kernels = get_kernels()
    return None if kernels is None else kernels.name


def native_available() -> bool:
    """Whether the C tier probed clean and ``REPRO_NATIVE`` is not off:
    the test every stage's engine choice and the fit planner make."""
    return get_kernels() is not None


def backend_info() -> dict[str, Any]:
    """Probe state for benches and manifests (never raises).

    ``"reason"`` says why no backend runs: the kill switch, or the
    exception text of the failed build or smoke test.
    """
    kernels = get_kernels()
    info: dict[str, Any] = {
        "backend": None if kernels is None else kernels.name,
        "disabled": _disabled(),
    }
    if kernels is not None:
        info.update(kernels.info)
    elif _disabled():
        info["reason"] = f"disabled by REPRO_NATIVE={os.environ['REPRO_NATIVE']}"
    else:
        info["reason"] = _PROBE["reason"]
    return info


def _reset_for_tests() -> None:
    """Forget the probe result (the fallback tests flip env vars)."""
    _PROBE.clear()
