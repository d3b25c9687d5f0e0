"""The native fused neighbor+link pass (the planner's ``native`` route).

Same shape as :func:`repro.parallel.links.fused_neighbor_links` -- row
blocks mapped over :func:`repro.parallel.pool.map_blocks` threads, one
:class:`~repro.core.links.LinkTable` at the end -- but each block is
scored by a native kernel instead of the scipy sparse product; the
ctypes call releases the GIL, so blocks score in parallel.
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
from repro.parallel.links import FusedFitResult, neighbor_csr_result, stitch_blocks
from repro.parallel.pool import block_rows, block_tasks, map_blocks

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


def native_neighbor_links(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
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
    kernels = get_kernels()
    csr = points if isinstance(points, TransactionCSR) else transaction_csr(
        points, similarity
    )
    overlap = int(isinstance(similarity, OverlapSimilarity))
    n = csr.n
    budget = resolve_memory_budget(memory_budget)
    if block_size is None:
        block_size = block_rows(n, budget)

    def score(task: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle neighbor lists for one row block."""
        start, stop = task
        t0 = time.perf_counter()
        upper_indptr, upper_indices = kernels.score_block(
            csr.indptr, csr.indices, csr.t_indptr, csr.t_indices, csr.sizes,
            n, start, stop, theta, overlap,
        )
        if registry is not None:
            registry.inc("fit.native.blocks")
            registry.inc("fit.native.rows", stop - start)
            registry.observe("fit.native.block_seconds", time.perf_counter() - t0)
        return np.diff(upper_indptr), upper_indices

    # the upper-triangle CSR, stitched in block order, lives only until
    # the mirror pass has rebuilt the full lists
    full_indptr, full_indices = kernels.mirror_neighbors(
        *stitch_blocks(map_blocks(score, block_tasks(n, block_size)), n), n
    )
    return neighbor_csr_result(
        full_indptr, full_indices, theta, budget, "native", keep_graph, registry
    )
