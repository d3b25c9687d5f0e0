"""Vectorised and fused Figure 4 link counting over the block schedule.

The Figure 4 algorithm charges +1 to every unordered pair drawn from
each point's neighbor list.  Here that inner pair loop becomes array
arithmetic: the pairs of a list of length ``m`` are the cached
``np.triu_indices(m, 1)`` gather, each pair is packed into a single
int64 code ``i * n + j`` (``i < j``), and counting is one sort plus a
run-length reduction.  Partial counts from different chunks merge by
concatenation + ``np.add.reduceat`` -- integer sums, so the totals are
exactly the serial table's.

:func:`fused_neighbor_links` is the fused kernel: each row block's
neighbor lists are scored, converted to pair counts, and discarded, so
the full neighbor graph never exists in the parent.  Peak memory is one
block plus the (compacted) running pair counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.links import LinkTable
from repro.core.neighbors import (
    BlockScorer,
    NeighborGraph,
    build_block_scorer,
    resolve_memory_budget,
)
from repro.core.similarity import SimilarityFunction
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import (
    block_tasks,
    imap_chunked,
    resolve_workers,
    worker_block_size,
)

__all__ = [
    "FusedFitResult",
    "fused_neighbor_links",
    "merge_pair_counts",
    "pair_link_counts",
]

_EMPTY = np.empty(0, dtype=np.int64)

# Compact the running pair-count chunks whenever their combined length
# passes this many codes (16 MB of int64 pairs) -- bounds the fused
# kernel's parent-side memory at O(linked pairs), not O(increments).
_COMPACT_LIMIT = 1 << 21

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


def merge_pair_counts(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-chunk ``(codes, counts)`` pairs into one sorted table.

    Pure integer addition -- the merged counts equal what a single
    serial pass over all lists would have produced, independent of how
    the lists were chunked.
    """
    parts = [part for part in parts if part[0].size]
    if not parts:
        return _EMPTY, _EMPTY
    if len(parts) == 1:
        return parts[0]
    codes = np.concatenate([codes for codes, _ in parts])
    counts = np.concatenate([counts for _, counts in parts])
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1])
    return codes[starts], np.add.reduceat(counts, starts)


# -- the fused neighbor+link kernel -------------------------------------------

_FUSED_STATE: dict[str, Any] = {}


def _init_fused_worker(scorer: BlockScorer, theta: float, keep_graph: bool) -> None:
    _FUSED_STATE["scorer"] = scorer
    _FUSED_STATE["theta"] = theta
    _FUSED_STATE["keep_graph"] = keep_graph


def _fused_block(
    task: tuple[int, int],
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, list[np.ndarray] | None, dict[str, Any]
]:
    start, stop = task
    scorer: BlockScorer = _FUSED_STATE["scorer"]
    t0 = time.perf_counter()
    rows = scorer.neighbor_rows(start, stop, _FUSED_STATE["theta"])
    codes, counts = pair_link_counts(rows, scorer.n)
    degrees = np.array([len(r) for r in rows], dtype=np.int64)
    local = MetricsRegistry()
    local.inc("fit.fused.blocks")
    local.inc("fit.fused.rows", stop - start)
    local.inc("fit.fused.pair_increments", int(counts.sum()))
    local.observe("fit.fused.block_seconds", time.perf_counter() - t0)
    return (
        codes, counts, degrees,
        (rows if _FUSED_STATE["keep_graph"] else None),
        local.snapshot(),
    )


@dataclass
class FusedFitResult:
    """Output of the fused kernel: links and degrees, graph optional.

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


def fused_neighbor_links(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    workers: int | str | None = "auto",
    block_size: int | None = None,
    memory_budget: int | None = None,
    keep_graph: bool = False,
    prefer_sparse: bool = True,
    registry: MetricsRegistry | None = None,
) -> FusedFitResult:
    """Score, threshold, and link-count each row block in one pass.

    Per block: compute its neighbor rows, immediately reduce them to packed pair counts,
    record the degrees, and discard the rows.  The parent merges the
    integer pair counts (compacting periodically) and builds one
    :class:`~repro.core.links.LinkTable` at the end -- bit-identical to
    ``compute_links(compute_neighbor_graph(...))`` while never holding
    the neighbor graph (unless ``keep_graph=True``, for tests and
    callers that want both from a single pass).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    count = resolve_workers(workers)
    n = len(points)
    scorer = build_block_scorer(points, similarity, prefer_sparse=prefer_sparse)
    if block_size is None:
        block_size = worker_block_size(
            n, count, resolve_memory_budget(memory_budget)
        )

    pending: list[tuple[np.ndarray, np.ndarray]] = []
    pending_codes = 0
    degree_blocks: list[np.ndarray] = []
    kept_rows: list[np.ndarray] = []
    for codes, counts, degrees, rows, delta in imap_chunked(
        _fused_block,
        block_tasks(n, block_size),
        workers=count,
        initializer=_init_fused_worker,
        initargs=(scorer, theta, keep_graph),
    ):
        if registry is not None:
            registry.merge(delta)
        pending.append((codes, counts))
        pending_codes += codes.size
        degree_blocks.append(degrees)
        if rows is not None:
            kept_rows.extend(rows)
        if pending_codes > _COMPACT_LIMIT:
            pending = [merge_pair_counts(pending)]
            pending_codes = pending[0][0].size

    links = LinkTable.from_pair_counts(
        n, *merge_pair_counts(pending), producer="fused"
    )
    degrees = (
        np.concatenate(degree_blocks)
        if degree_blocks
        else np.zeros(0, dtype=np.int64)
    )
    graph = (
        NeighborGraph.from_neighbor_lists(kept_rows, theta=theta, validate=False)
        if keep_graph
        else None
    )
    return FusedFitResult(links=links, degrees=degrees, theta=theta, graph=graph)
