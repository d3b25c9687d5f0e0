"""The sharded fit coordinator: blocks -> components -> streams -> replay.

Execution plan (every phase checkpointed through
:mod:`repro.shard.checkpoint`):

1. **Encode** the input into a :class:`~repro.shard.store.TransactionStore`
   under the run directory (or adopt a caller-provided store).  Workers
   receive the store *path* and memory-map it.
2. **Score blocks** (``block-*`` units): each worker runs the sharded
   fused kernel over a row range -- the exact
   ``SparseTransactionScorer`` adjacency plus the Figure 4 pair counts
   -- and spills degrees, neighbor edges and link-pair counts.  The
   coordinator streams the edges into a union-find, so connected
   components exist *before any dense structure*.
3. **Merge components** (``comps-*`` units): per-component link pairs
   (bucketed from the block spills) go to workers that run the PR 5
   engine -- ``partition_components`` + ``component_merge_stream`` --
   and spill each component's merge streams.
4. **Replay**: the spilled streams feed the same k-way replay the fast
   engine uses, stitching one :class:`~repro.core.rock.RockResult`.

Byte-identity with the fused kernel holds link by link: the store
scorer reproduces the sparse adjacency bit for bit, per-component pair
lists are the (lo, hi)-sorted global pair list restricted to each
component, component-local ids are order-isomorphic to global ids, and
the replay key ``(-goodness, u_global_id)`` never sees a tie it could
order differently.  The property tests in ``tests/test_shard_fit.py``
assert this across worker counts and block sizes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.goodness import goodness as normalized_goodness
from repro.core.goodness import merge_kernel_by_name, merge_kernel_for
from repro.core.merge import (
    ComponentProblem,
    MergeStream,
    _component_labels,
    _replay_streams,
    component_merge_stream,
    partition_components,
)
from repro.core.rock import RockResult
from repro.obs.trace import Tracer, peak_rss_bytes
from repro.parallel.links import merge_pair_counts, pair_link_counts
from repro.shard.checkpoint import RunDirectory, ShardExecutor, maybe_kill_for_test
from repro.shard.planner import component_chunks, plan_shards, resolve_workers
from repro.shard.store import StoreScorer, TransactionStore

__all__ = ["ShardFitResult", "shard_fit", "shard_supported"]

_EMPTY64 = np.empty(0, dtype=np.int64)


@dataclass
class ShardFitResult:
    """Everything the pipeline needs from a sharded fit."""

    result: RockResult
    kept: np.ndarray
    discarded: np.ndarray
    degrees: np.ndarray = field(repr=False)
    n_blocks: int = 0
    n_components: int = 0
    resumed_units: int = 0
    retries: int = 0
    degraded: bool = False
    store_path: str | None = None
    timings: dict[str, float] = field(default_factory=dict)


def shard_supported(points: Any, similarity: Any, goodness_fn: Any) -> tuple[bool, str]:
    """Whether the sharded path can run this fit bit-identically.

    Requires a store-encodable input (transactions, or categorical
    records via the ``A.v`` item expansion) under Jaccard/overlap
    similarity, and a built-in goodness measure (custom callables are
    not assumed picklable and carry no exactness promise under
    reordered evaluation).
    """
    from repro.core.neighbors import supports_blocked
    from repro.core.similarity import MissingAwareJaccard

    if goodness_fn is not None and merge_kernel_for(goodness_fn, 0.0) is None:
        return False, "custom goodness callables are not shardable"
    if isinstance(similarity, MissingAwareJaccard):
        return False, "missing-aware similarity has no store encoding"
    if not supports_blocked(points, similarity):
        return False, "no store encoding for this points/similarity pair"
    return True, ""


def _as_transactions(points: Any, similarity: Any) -> tuple[Any, bool]:
    """Normalise supported inputs to transaction rows + overlap flag."""
    from repro.core.similarity import OverlapSimilarity
    from repro.data.records import CategoricalDataset

    overlap = isinstance(similarity, OverlapSimilarity)
    if isinstance(points, CategoricalDataset):
        from repro.core.encoding import dataset_to_transactions

        return dataset_to_transactions(points), overlap
    return points, overlap


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

_WORKER: dict[str, Any] = {}


def _init_shard_worker(
    store_path: str,
    run_root: str,
    theta: float,
    overlap: bool,
    kernel_name: str,
    f_theta: float,
) -> None:
    """Pool initializer: the payload is a *path*; the scorer mmaps it."""
    _WORKER["scorer"] = None  # built lazily so merge-only pools skip it
    _WORKER["store_path"] = store_path
    _WORKER["root"] = run_root
    _WORKER["theta"] = float(theta)
    _WORKER["overlap"] = bool(overlap)
    _WORKER["kernel_name"] = kernel_name
    _WORKER["f_theta"] = float(f_theta)


def _worker_scorer() -> StoreScorer:
    if _WORKER.get("scorer") is None:
        _WORKER["scorer"] = StoreScorer(
            _WORKER["store_path"], overlap=_WORKER["overlap"]
        )
    return _WORKER["scorer"]


def _score_block(unit: str, span: tuple[int, int]) -> dict[str, Any]:
    """Phase 2 unit: fused scoring of one row block, spilled to disk."""
    root = Path(_WORKER["root"])
    maybe_kill_for_test(unit, root)
    t0 = time.perf_counter()
    scorer = _worker_scorer()
    start, stop = span
    n = scorer.n
    rows = scorer.neighbor_rows(start, stop, _WORKER["theta"])
    degrees = np.asarray([row.shape[0] for row in rows], dtype=np.int64)
    codes, counts = pair_link_counts(rows, n)
    edge_chunks = []
    for offset, neighbors in enumerate(rows):
        i = start + offset
        upper = np.asarray(neighbors, dtype=np.int64)
        upper = upper[upper > i]
        if upper.size:
            edge_chunks.append(i * n + upper)
    edges = np.concatenate(edge_chunks) if edge_chunks else _EMPTY64
    RunDirectory(root).publish_unit(
        unit,
        {
            "start": np.asarray([start], dtype=np.int64),
            "stop": np.asarray([stop], dtype=np.int64),
            "degrees": degrees,
            "edges": edges,
            "codes": np.asarray(codes, dtype=np.int64),
            "counts": np.asarray(counts, dtype=np.int64),
        },
    )
    return {
        "seconds": time.perf_counter() - t0,
        "rss": peak_rss_bytes(),
        "edges": int(edges.size),
        "pairs": int(codes.size),
    }


def _merge_components(unit: str, payload: list[tuple]) -> dict[str, Any]:
    """Phase 3 unit: PR 5 merge streams for a chunk of components."""
    root = Path(_WORKER["root"])
    maybe_kill_for_test(unit, root)
    t0 = time.perf_counter()
    kernel = merge_kernel_by_name(_WORKER["kernel_name"], _WORKER["f_theta"])
    arrays: dict[str, np.ndarray] = {}
    heap_ops = 0
    for comp_index, members_kept, lo, hi, counts in payload:
        size = int(members_kept.shape[0])
        problems = partition_components(
            size, np.ones(size, dtype=np.int64), lo, hi, counts
        )
        key = f"c{comp_index}"
        arrays[f"{key}_nproblems"] = np.asarray([len(problems)], dtype=np.int64)
        for slot, problem in enumerate(problems):
            stream = component_merge_stream(problem, kernel)
            heap_ops += stream.heap_ops
            prefix = f"{key}_p{slot}"
            arrays[f"{prefix}_gids"] = members_kept[problem.global_ids]
            arrays[f"{prefix}_left"] = stream.left
            arrays[f"{prefix}_right"] = stream.right
            arrays[f"{prefix}_goodness"] = stream.goodness
            arrays[f"{prefix}_sizes"] = stream.sizes
    RunDirectory(root).publish_unit(unit, arrays)
    return {
        "seconds": time.perf_counter() - t0,
        "rss": peak_rss_bytes(),
        "heap_ops": heap_ops,
    }


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


def _prepare_store(
    run_dir: RunDirectory,
    points: Any,
    store: TransactionStore | str | os.PathLike[str] | None,
    chunk_rows: int,
) -> TransactionStore:
    """Adopt an external store or (re)encode ``points`` under the run dir.

    Re-encoding is idempotent: the fresh encode lands in ``store.new``
    and replaces the resident store only when the checksums differ, so
    a resumed run with unchanged data keeps its fingerprint (and its
    completed units).
    """
    if store is not None:
        if isinstance(store, TransactionStore):
            return store
        return TransactionStore.open(store)
    store_dir = run_dir.root / "store"
    fresh_dir = run_dir.root / "store.new"
    fresh = TransactionStore.write(fresh_dir, points, chunk_rows=chunk_rows)
    try:
        resident = TransactionStore.open(store_dir)
    except Exception:
        resident = None
    if resident is not None and resident.meta["checksums"] == fresh.meta["checksums"]:
        del fresh
        shutil.rmtree(fresh_dir)
        return resident
    if store_dir.exists():
        shutil.rmtree(store_dir)
    os.replace(fresh_dir, store_dir)
    return TransactionStore.open(store_dir)


def shard_fit(
    points: Any = None,
    *,
    store: TransactionStore | str | os.PathLike[str] | None = None,
    k: int,
    theta: float,
    f_theta: float,
    similarity: Any = None,
    goodness_fn: Any = None,
    min_neighbors: int = 0,
    workers: int | str | None = None,
    block_rows: int | None = None,
    spill_dir: str | os.PathLike[str] | None = None,
    max_retries: int = 2,
    memory_budget: int | None = None,
    chunk_rows: int = 8192,
    tracer: Tracer | None = None,
) -> ShardFitResult:
    """Out-of-core sharded fit over ``points`` or an encoded ``store``.

    Produces the same :class:`RockResult` (over kept-point indices,
    ascending) as the fused + fast-merge path, byte for byte.  With a
    ``spill_dir`` the run is crash-safe: completed units are skipped on
    the next invocation with the same configuration and data.
    """
    if points is None and store is None:
        raise ValueError("shard_fit needs points or a store")
    if goodness_fn is None:
        goodness_fn = normalized_goodness
    kernel = merge_kernel_for(goodness_fn, f_theta)
    if kernel is None:
        raise ValueError("shard_fit requires a built-in goodness measure")
    if min_neighbors > 1:
        raise ValueError("shard_fit supports min_neighbors <= 1 only")
    if tracer is None:
        tracer = Tracer()
    registry = tracer.registry
    worker_count = resolve_workers(workers)

    overlap = False
    if points is not None and store is None:
        points, overlap = _as_transactions(points, similarity)
    else:
        from repro.core.similarity import OverlapSimilarity

        overlap = isinstance(similarity, OverlapSimilarity)

    owns_spill = spill_dir is None
    if owns_spill:
        spill_dir = tempfile.mkdtemp(prefix="rock-shard-")
    run_dir = RunDirectory(spill_dir)
    try:
        return _shard_fit_run(
            run_dir,
            points,
            store,
            k=k,
            theta=theta,
            f_theta=f_theta,
            kernel_name=kernel.name,
            overlap=overlap,
            min_neighbors=min_neighbors,
            worker_count=worker_count,
            block_rows=block_rows,
            max_retries=max_retries,
            memory_budget=memory_budget,
            chunk_rows=chunk_rows,
            tracer=tracer,
            registry=registry,
        )
    finally:
        if owns_spill:
            run_dir.cleanup()


def _shard_fit_run(
    run_dir: RunDirectory,
    points: Any,
    store_arg: Any,
    *,
    k: int,
    theta: float,
    f_theta: float,
    kernel_name: str,
    overlap: bool,
    min_neighbors: int,
    worker_count: int,
    block_rows: int | None,
    max_retries: int,
    memory_budget: int | None,
    chunk_rows: int,
    tracer: Tracer,
    registry: Any,
) -> ShardFitResult:
    timings: dict[str, float] = {}
    worker_rss = 0

    # -- encode + plan + fingerprint ------------------------------------
    encode_start = time.perf_counter()
    with tracer.span("shard.store") as span:
        store = _prepare_store(run_dir, points, store_arg, chunk_rows)
        span.attrs["n"] = len(store)
        span.attrs["nnz"] = store.nnz
        span.attrs["bytes"] = store.nbytes()
    n = len(store)
    plan = plan_shards(
        n,
        block_rows=block_rows,
        workers=worker_count,
        memory_budget=memory_budget,
    )
    resumed = run_dir.begin(
        {
            "n": n,
            "k": int(k),
            "theta": float(theta),
            "f_theta": float(f_theta),
            "kernel": kernel_name,
            "overlap": bool(overlap),
            "min_neighbors": int(min_neighbors),
            "block_rows": plan.block_rows,
            "store": store.checksum,
        }
    )
    block_units = plan.block_units()
    resumed_units = (
        len(run_dir.done_units([name for name, _ in block_units])) if resumed else 0
    )
    timings["store"] = time.perf_counter() - encode_start

    executor = ShardExecutor(
        run_dir,
        workers=worker_count,
        max_retries=max_retries,
        initializer=_init_shard_worker,
        initargs=(
            str(store.path),
            str(run_dir.root),
            float(theta),
            bool(overlap),
            kernel_name,
            float(f_theta),
        ),
    )

    # -- phase 2: sharded fused scoring + early components --------------
    with tracer.span(
        "neighbors", sharded=True, n=n, blocks=plan.n_blocks,
        block_rows=plan.block_rows, workers=worker_count,
    ) as neighbors_span:
        def on_block(name: str, info: dict[str, Any]) -> None:
            nonlocal worker_rss
            worker_rss = max(worker_rss, int(info.get("rss", 0)))
            with tracer.span(
                f"shard.{name}",
                seconds=round(float(info["seconds"]), 6),
                edges=info.get("edges", 0),
                pairs=info.get("pairs", 0),
            ):
                pass

        executor.run(block_units, _score_block, on_block)

        degrees = np.zeros(n, dtype=np.int64)
        edge_parts: list[np.ndarray] = []
        total_pairs = 0
        for name, (start, stop) in block_units:
            data = run_dir.load_unit(name)
            degrees[start:stop] = data["degrees"]
            edge_parts.append(data["edges"])
            total_pairs += int(data["codes"].size)
        edges = (
            np.concatenate(edge_parts) if edge_parts else _EMPTY64
        )
        labels = _component_labels(n, edges // n, edges % n)

        if min_neighbors > 0:
            kept = np.flatnonzero(degrees >= min_neighbors)
        else:
            kept = np.arange(n, dtype=np.int64)
        discarded = np.setdiff1d(np.arange(n, dtype=np.int64), kept)
        kept_pos = np.full(n, -1, dtype=np.int64)
        kept_pos[kept] = np.arange(kept.shape[0], dtype=np.int64)

        # linked points group into components; singletons replay as-is
        linked = np.flatnonzero(degrees > 0)
        comp_members: list[np.ndarray] = []
        if linked.size:
            linked_labels = labels[linked]
            order = np.argsort(linked_labels, kind="stable")
            sorted_labels = linked_labels[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_labels[1:] != sorted_labels[:-1]]
            )
            bounds = np.r_[starts, linked.size]
            comp_members = [
                linked[order[bounds[i]:bounds[i + 1]]]
                for i in range(starts.size)
            ]
        comp_index_of = np.full(n, -1, dtype=np.int64)
        for index, members in enumerate(comp_members):
            comp_index_of[members] = index
        neighbors_span.attrs["components"] = len(comp_members)
        neighbors_span.attrs["edges"] = int(edges.size)
    timings["neighbors"] = neighbors_span.wall_seconds or 0.0

    # -- phase 3: per-component links + merge streams --------------------
    with tracer.span(
        "links", sharded=True, components=len(comp_members), workers=worker_count,
    ) as links_span:
        buckets: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in comp_members
        ]
        for name, _span in block_units:
            data = run_dir.load_unit(name)
            codes = data["codes"]
            if not codes.size:
                continue
            counts = data["counts"]
            comps = comp_index_of[codes // n]
            order = np.argsort(comps, kind="stable")
            sorted_comps = comps[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_comps[1:] != sorted_comps[:-1]]
            )
            bounds = np.r_[starts, codes.size]
            for i in range(starts.size):
                comp = int(sorted_comps[starts[i]])
                picks = order[bounds[i]:bounds[i + 1]]
                buckets[comp].append((codes[picks], counts[picks]))

        payloads: list[tuple] = []
        costs = np.zeros(len(comp_members), dtype=np.float64)
        for index, members in enumerate(comp_members):
            codes, counts = merge_pair_counts(buckets[index])
            buckets[index] = []
            sample_lo = codes // n
            sample_hi = codes % n
            lo = np.searchsorted(members, sample_lo)
            hi = np.searchsorted(members, sample_hi)
            payloads.append(
                (
                    index,
                    kept_pos[members],
                    lo.astype(np.int64),
                    hi.astype(np.int64),
                    counts.astype(np.float64),
                )
            )
            costs[index] = codes.size
        chunks = component_chunks(costs)
        comp_units = [
            (f"comps-{index:05d}", payloads[start:stop])
            for index, (start, stop) in enumerate(chunks)
        ]

        heap_ops = 0

        def on_comps(name: str, info: dict[str, Any]) -> None:
            nonlocal worker_rss, heap_ops
            worker_rss = max(worker_rss, int(info.get("rss", 0)))
            heap_ops += int(info.get("heap_ops", 0))
            with tracer.span(
                f"shard.{name}",
                seconds=round(float(info["seconds"]), 6),
            ):
                pass

        if resumed:
            resumed_units += len(
                run_dir.done_units([name for name, _ in comp_units])
            )
        executor.run(comp_units, _merge_components, on_comps)
        links_span.attrs["component_units"] = len(comp_units)
    timings["links"] = links_span.wall_seconds or 0.0

    # -- phase 4: k-way replay -------------------------------------------
    with tracer.span("cluster", sharded=True, k=k) as cluster_span:
        m = int(kept.shape[0])
        collected: list[tuple[np.ndarray, MergeStream]] = []
        for name, payload in comp_units:
            data = run_dir.load_unit(name)
            for comp_index, _members, _lo, _hi, _counts in payload:
                key = f"c{comp_index}"
                n_problems = int(data[f"{key}_nproblems"][0])
                for slot in range(n_problems):
                    prefix = f"{key}_p{slot}"
                    collected.append(
                        (
                            data[f"{prefix}_gids"],
                            MergeStream(
                                left=data[f"{prefix}_left"],
                                right=data[f"{prefix}_right"],
                                goodness=data[f"{prefix}_goodness"],
                                sizes=data[f"{prefix}_sizes"],
                            ),
                        )
                    )
        collected.sort(key=lambda pair: int(pair[0][0]))
        problems = [
            ComponentProblem(
                index=position,
                global_ids=np.asarray(gids, dtype=np.int64),
                sizes=np.ones(gids.shape[0], dtype=np.int64),
                pair_lo=_EMPTY64,
                pair_hi=_EMPTY64,
                pair_count=np.empty(0, dtype=np.float64),
            )
            for position, (gids, _stream) in enumerate(collected)
        ]
        streams = [stream for _gids, stream in collected]
        registry.inc("fit.cluster.heap_ops", heap_ops)
        merges, roots, stopped_early = _replay_streams(
            problems, streams, k, m, registry
        )
        result = RockResult.from_arrays(merges, roots, stopped_early)
        registry.inc("fit.cluster.merges", result.n_merges)
    timings["cluster"] = cluster_span.wall_seconds or 0.0

    # -- observability ----------------------------------------------------
    registry.inc("fit.shard.blocks", plan.n_blocks)
    registry.inc("fit.shard.components", len(comp_members))
    registry.inc("fit.shard.component_units", len(comp_units))
    registry.inc("fit.shard.edges", int(edges.size))
    registry.inc("fit.shard.linked_pairs", total_pairs)
    if executor.retries:
        registry.inc("fit.shard.retries", executor.retries)
    if executor.degraded:
        registry.inc("fit.shard.degraded")
    if resumed_units:
        registry.inc("fit.shard.resumed_units", resumed_units)
    registry.set_gauge("fit.shard.block_rows", plan.block_rows)
    registry.set_gauge("fit.shard.store_bytes", store.nbytes())
    if worker_rss:
        registry.set_gauge("fit.shard.worker_peak_rss_bytes", worker_rss)

    return ShardFitResult(
        result=result,
        kept=kept,
        discarded=discarded,
        degrees=degrees,
        n_blocks=plan.n_blocks,
        n_components=len(comp_members),
        resumed_units=resumed_units,
        retries=executor.retries,
        degraded=executor.degraded,
        store_path=str(store.path),
        timings=timings,
    )
