"""The native fused neighbor+link pass (the planner's ``native`` route).

Same shape as :func:`repro.parallel.links.fused_neighbor_links` -- row
blocks fanned across :mod:`repro.parallel.pool` workers, one
:class:`~repro.core.links.LinkTable` at the end -- but each block is
scored by a native kernel instead of the scipy sparse product.
Similarity is symmetric, so the block kernel scores only the upper
triangle (``j > row``, half the accumulate work of the reference
product); a linear-time mirror pass rebuilds the full ascending
neighbor lists, whose links are counted by the rule every producer
follows (:func:`repro.parallel.links.neighbor_csr_result`: the C
``link_rows`` kernel, or the row-block square where that pays).  Bit-identical by
construction: intersections are the same integer counts (each shared
item contributes exactly +1, whichever triangle it is counted in), the
survivor test is the same exact float64 ``inter / denom >= theta``
division the sparse scorer performs, and link counting is pure integer
arithmetic either way.

Only the configurations the kernel understands are supported --
transaction-shaped points (or categorical records encoded to
transactions) under builtin Jaccard/overlap similarity with
``theta > 0``.  :func:`native_fit_supported` reports the reason a
configuration is not; :func:`repro.core.pipeline.plan_fit` records it
and routes the fit to the fused kernel instead.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.encoding import (
    TransactionCSR,
    transaction_csr,
    transaction_csr_blocker,
)
from repro.core.neighbors import resolve_memory_budget
from repro.core.similarity import OverlapSimilarity, SimilarityFunction
from repro.obs.registry import MetricsRegistry
from repro.parallel.links import FusedFitResult, neighbor_csr_result
from repro.parallel.pool import (
    block_tasks,
    imap_chunked,
    resolve_workers,
    worker_block_size,
)

__all__ = [
    "native_fit_supported",
    "native_neighbor_links",
]


def native_fit_supported(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
) -> tuple[bool, str | None]:
    """Whether the native fused pass can run; ``(ok, reason_if_not)``.

    Checked by type, without a pass over the points; ``points`` may be
    a :class:`~repro.core.encoding.TransactionCSR`.
    """
    from repro.native import native_available

    if not native_available():
        return False, "no native backend available"
    if theta <= 0.0:
        return False, "theta <= 0 links every pair (python path handles it)"
    if isinstance(points, TransactionCSR):
        return True, None
    blocker = transaction_csr_blocker(points, similarity)
    return blocker is None, blocker


# -- worker side --------------------------------------------------------------

_NATIVE_STATE: dict[str, Any] = {}


def _init_native_worker(csr: TransactionCSR, theta: float, overlap: int) -> None:
    from repro.native import get_kernels

    _NATIVE_STATE["csr"] = csr
    _NATIVE_STATE["theta"] = theta
    _NATIVE_STATE["overlap"] = overlap
    # On fork-start platforms the parent's probed kernels (and loaded
    # shared object) are inherited; on spawn this re-probes in the
    # child against the on-disk cache the parent's probe warmed.
    _NATIVE_STATE["kernels"] = get_kernels()


def _native_block(
    task: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Upper-triangle neighbor lists for one row block."""
    start, stop = task
    csr: TransactionCSR = _NATIVE_STATE["csr"]
    kernels = _NATIVE_STATE["kernels"]
    t0 = time.perf_counter()
    upper_indptr, upper_indices = kernels.score_block(
        csr.indptr,
        csr.indices,
        csr.t_indptr,
        csr.t_indices,
        csr.sizes,
        csr.n,
        start,
        stop,
        _NATIVE_STATE["theta"],
        _NATIVE_STATE["overlap"],
    )
    local = MetricsRegistry()
    local.inc("fit.native.blocks")
    local.inc("fit.native.rows", stop - start)
    local.observe("fit.native.block_seconds", time.perf_counter() - t0)
    return upper_indptr, upper_indices, local.snapshot()


def native_neighbor_links(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    workers: int | str | None = "auto",
    block_size: int | None = None,
    memory_budget: int | None = None,
    keep_graph: bool = False,
    registry: MetricsRegistry | None = None,
) -> FusedFitResult:
    """The fused fit pass with native block kernels.

    ``points`` may be the :class:`~repro.core.encoding.TransactionCSR`
    the fit planner already built.  Raises ``ValueError`` for
    unsupported configurations -- callers are expected to consult
    :func:`native_fit_supported` first and fall back to
    :func:`repro.parallel.links.fused_neighbor_links`.
    """
    from repro.native import get_kernels

    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    ok, reason = native_fit_supported(points, theta, similarity)
    if not ok:
        raise ValueError(f"native fit unsupported: {reason}")
    # native_fit_supported probed (compiled + dlopen'd) in the parent
    # before fan-out: forked workers inherit the loaded library,
    # spawned ones hit a warm on-disk cache
    kernels = get_kernels()
    csr = points if isinstance(points, TransactionCSR) else transaction_csr(
        points, similarity
    )
    overlap = int(isinstance(similarity, OverlapSimilarity))
    count = resolve_workers(workers)
    n = csr.n
    budget = resolve_memory_budget(memory_budget)
    if block_size is None:
        block_size = worker_block_size(n, count, budget)

    # workers emit per-block upper-triangle lists in task order; stitch
    # them into one global upper CSR by offsetting each block's indptr
    upper_len_blocks: list[np.ndarray] = []
    upper_index_blocks: list[np.ndarray] = []
    for upper_indptr, upper_indices, delta in imap_chunked(
        _native_block,
        block_tasks(n, block_size),
        workers=count,
        initializer=_init_native_worker,
        initargs=(csr, theta, overlap),
    ):
        if registry is not None:
            registry.merge(delta)
        upper_len_blocks.append(np.diff(upper_indptr))
        upper_index_blocks.append(upper_indices)

    upper_indptr = np.zeros(n + 1, dtype=np.int64)
    if upper_len_blocks:
        np.cumsum(np.concatenate(upper_len_blocks), out=upper_indptr[1:])
    upper_indices = (
        np.concatenate(upper_index_blocks)
        if upper_index_blocks
        else np.empty(0, dtype=np.int32)
    )
    full_indptr, full_indices = kernels.mirror_neighbors(
        upper_indptr, upper_indices, n
    )
    return neighbor_csr_result(
        full_indptr, full_indices, theta, budget, "native", keep_graph, registry
    )
