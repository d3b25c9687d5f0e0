"""The fused neighbor+link pass, and the vectorised Figure 4 pair count.

The Figure 4 algorithm charges +1 to every unordered pair drawn from
each point's neighbor list.  :func:`pair_link_counts` runs that inner
pair loop as array arithmetic: the pairs of a list of length ``m`` are
the cached ``np.triu_indices(m, 1)`` gather, each pair is packed into a
single int64 code ``i * n + j`` (``i < j``), and counting is one sort
plus a run-length reduction.  It is
:func:`~repro.core.links.row_link_table`'s path where neither the C
tier nor scipy is available.

:func:`fused_neighbor_links` is the fused kernel: threads score row
blocks into neighbor lists, and the caller counts their links by the
rule every producer follows (:func:`neighbor_csr_result`): one output
row at a time (:func:`repro.core.links.row_link_table`), or the
row-block square where the pair work is large against ``n^2`` and the
square fits the memory budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.links import LinkTable, neighbor_list_links
from repro.core.neighbors import (
    NeighborGraph,
    build_block_scorer,
    resolve_memory_budget,
)
from repro.core.similarity import SimilarityFunction
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import block_rows, block_tasks, map_blocks

__all__ = [
    "FusedFitResult",
    "fused_neighbor_links",
    "pair_link_counts",
]

_EMPTY = np.empty(0, dtype=np.int64)

# Cache of np.triu_indices(m, 1) keyed by m: neighbor lists repeat the
# same handful of lengths, and regenerating the index pair per list
# dominates the packing cost otherwise.
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    pair = _TRIU_CACHE.get(m)
    if pair is None:
        pair = np.triu_indices(m, 1)
        _TRIU_CACHE[m] = pair
    return pair


def pair_link_counts(
    neighbor_lists: list[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate Figure 4 pair increments for a chunk of neighbor lists.

    Returns ``(codes, counts)``: sorted unique pair codes ``i * n + j``
    (``i < j``, valid because neighbor lists are sorted ascending) and
    the number of common neighbors each pair accumulated *within this
    chunk*.
    """
    chunks: list[np.ndarray] = []
    for neighbors in neighbor_lists:
        m = len(neighbors)
        if m < 2:
            continue
        nbr = np.asarray(neighbors, dtype=np.int64)
        a, b = _triu_pairs(m)
        chunks.append(nbr[a] * n + nbr[b])
    if not chunks:
        return _EMPTY, _EMPTY
    return np.unique(np.concatenate(chunks), return_counts=True)


# -- the fused neighbor+link kernel -------------------------------------------


@dataclass
class FusedFitResult:
    """Output of the one-pass kernels: links and degrees, graph optional.

    ``links`` is the full Figure 4 link table over all ``n`` points;
    ``degrees[i]`` is point ``i``'s neighbor count (what isolated-point
    pruning needs, since the graph itself may not exist); ``graph`` is
    populated only when ``keep_graph=True`` was requested.
    """

    links: LinkTable
    degrees: np.ndarray
    theta: float
    graph: NeighborGraph | None = None

    @property
    def n(self) -> int:
        return self.links.n


def neighbor_csr_result(
    indptr: np.ndarray,
    indices: np.ndarray,
    theta: float,
    memory_budget: int,
    kernel: str,
    keep_graph: bool,
    registry: MetricsRegistry | None,
) -> FusedFitResult:
    """Count the links of scored neighbor lists and package the result.

    Both one-pass kernels end here: links by
    :func:`~repro.core.links.neighbor_list_links` (the rule
    :func:`~repro.core.links.compute_links` follows), degrees from the
    CSR, and ``fit.<kernel>.pair_increments`` -- the Figure 4 pair work
    ``sum_i m_i (m_i - 1) / 2``, which the link counts sum to whichever
    way they were counted.
    """
    n = len(indptr) - 1
    links = neighbor_list_links(indptr, indices, n, memory_budget)
    if registry is not None:
        registry.inc(f"fit.{kernel}.pair_increments", int(links.counts.sum()))
    graph = None
    if keep_graph:
        graph = NeighborGraph.from_neighbor_lists(
            np.split(np.asarray(indices, dtype=np.int64), indptr[1:-1])
            if n else [],
            theta=theta, validate=False,
        )
    return FusedFitResult(
        links=links, degrees=np.diff(indptr), theta=theta, graph=graph
    )


def fused_neighbor_links(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    block_size: int | None = None,
    memory_budget: int | None = None,
    keep_graph: bool = False,
    prefer_sparse: bool = True,
    registry: MetricsRegistry | None = None,
) -> FusedFitResult:
    """Score each row block's neighbor lists, then count their links.

    Row blocks are scored (the scipy shared-item product by default)
    on :func:`~repro.parallel.pool.map_blocks` threads; their neighbor
    lists are stitched in block order into one CSR whose links are
    counted by the rule every producer follows
    (:func:`neighbor_csr_result`) -- bit-identical to
    ``compute_links(compute_neighbor_graph(...))``.  ``points`` may be
    a :class:`~repro.core.encoding.TransactionCSR`.  The graph object
    is built only for ``keep_graph=True`` (tests, and callers that
    want both from a single pass).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    n = len(points)
    budget = resolve_memory_budget(memory_budget)
    scorer = build_block_scorer(points, similarity, prefer_sparse=prefer_sparse)
    if block_size is None:
        block_size = block_rows(n, budget)

    def score(task: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = task
        t0 = time.perf_counter()
        block = scorer.neighbor_block(start, stop, theta)
        if registry is not None:
            registry.inc("fit.fused.blocks")
            registry.inc("fit.fused.rows", stop - start)
            registry.observe("fit.fused.block_seconds", time.perf_counter() - t0)
        return block

    indptr, indices = stitch_blocks(map_blocks(score, block_tasks(n, block_size)), n)
    return neighbor_csr_result(
        indptr, indices, theta, budget, "fused", keep_graph, registry
    )


def stitch_blocks(
    blocks: list[tuple[np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One CSR over ``n`` rows from per-block ``(row lengths, indices)``,
    in block order.  The blocks die with the caller's temporary list, so
    they are not held while the links are counted."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if not blocks:
        return indptr, np.empty(0, dtype=np.int32)
    np.cumsum(np.concatenate([lengths for lengths, _ in blocks]), out=indptr[1:])
    return indptr, np.concatenate([indices for _, indices in blocks])
