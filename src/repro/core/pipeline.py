"""The end-to-end ROCK pipeline (Section 4.1, Figure 2).

    data -> draw random sample -> cluster with links -> label data on disk

plus the outlier handling of Section 4.6 woven in at its two moments:
isolated points are discarded after the neighbor computation, and
(optionally) clustering pauses at a small multiple of ``k`` to weed
small clusters before resuming to ``k``.

:class:`RockPipeline` is the main public entry point of the library.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.goodness import default_f, goodness as normalized_goodness
from repro.core.labeling import (
    ClusterLabeler,
    draw_labeling_sets,
    labels_from_clusters,
)
from repro.core.merge import MERGE_METHODS
from repro.core.links import compute_links
from repro.core.neighbors import NeighborGraph, compute_neighbor_graph
from repro.core.outliers import prune_sparse_points, weed_small_clusters, weeding_stop_count
from repro.core.rock import (
    FIT_MODES,
    GoodnessFunction,
    RockResult,
    cluster_with_links,
    resolve_fit_mode,
)
from repro.core.sampling import sample_indices
from repro.core.similarity import SimilarityFunction
from repro.data.records import CategoricalDataset
from repro.data.transactions import TransactionDataset
from repro.obs.trace import Tracer


@dataclass
class PipelineResult:
    """Everything a caller needs from one pipeline run.

    Attributes
    ----------
    labels:
        Per-point cluster index over the *full* input (length ``n``),
        -1 for outliers.
    clusters:
        Final clusters as lists of original point indices (sample
        members plus labeled points), ordered by decreasing size.
    sample_indices:
        Original indices of the sampled points.
    outlier_indices:
        Original indices of sampled points discarded as outliers
        (isolated points and weeded small clusters).
    rock_result:
        The raw merge-loop result over the pruned sample (its point
        indexing is internal; use ``clusters``/``labels`` instead).
    timings:
        Wall-clock seconds per stage: ``sample``, ``neighbors``,
        ``links``, ``cluster``, ``label``.  Figure 5 of the paper
        excludes the labeling phase; its bench sums the others.
    labeling_sets:
        The per-cluster ``L_i`` representative sets actually used by the
        labeling scan (in final cluster order), or ``None`` when no
        labeling happened (full-input clustering, or
        ``label_remaining=False``).  These are what
        :meth:`RockPipeline.to_model` persists so a saved model
        reproduces the run's labels exactly.
    similarity:
        The similarity function the run used (``None`` = default
        Jaccard); recorded so persistence can round-trip the
        configuration.
    backends:
        Which implementation actually ran each phase, e.g.
        ``{"fit": "native:cext", "links": "native:cext", "merge":
        "native:cext"}`` or ``{"fit": "dense", "links": "dense-blocks",
        "merge": "fast"}`` -- the resolved backends,
        not the requested modes, so benchmarks and model metadata can
        tell a silent fallback from the real thing.
    """

    labels: np.ndarray
    clusters: list[list[int]]
    sample_indices: list[int]
    outlier_indices: list[int]
    rock_result: RockResult
    timings: dict[str, float] = field(default_factory=dict)
    labeling_sets: list[list[Any]] | None = None
    similarity: SimilarityFunction | None = None
    backends: dict[str, str] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def clustering_seconds(self) -> float:
        """Total time excluding labeling (the Figure 5 measurement)."""
        return sum(v for k, v in self.timings.items() if k != "label")


class RockPipeline:
    """Configurable ROCK pipeline: sample, prune, cluster, weed, label.

    Parameters
    ----------
    k:
        Desired number of clusters (a hint; see paper Section 5.2).
    theta:
        Neighbor similarity threshold in [0, 1].
    similarity:
        Similarity function (default: Jaccard over transactions /
        ``A.v``-encoded categorical records).
    f:
        The ``f(theta)`` estimate (default: market-basket heuristic).
    sample_size:
        Random-sample size; ``None`` clusters the entire input.
    min_neighbors:
        Discard sampled points with fewer neighbors than this before
        clustering (0 disables the pruning).
    outlier_multiple / min_cluster_size:
        When ``min_cluster_size`` is set, clustering pauses at
        ``outlier_multiple * k`` clusters, weeds clusters smaller than
        ``min_cluster_size``, then resumes to ``k``.
    labeling_fraction:
        Fraction of each cluster used as the labeling set ``L_i``.
    goodness_fn:
        Merge-goodness strategy (ablation hook).
    neighbor_method:
        ``"auto"`` / ``"vectorized"`` / ``"blocked"`` / ``"bruteforce"``
        -- ``"blocked"`` forces the memory-bounded row-block kernel
        (sparse neighbor lists, no dense ``n x n`` array); ``"auto"``
        picks it whenever the dense similarity matrix would exceed
        ``memory_budget``.
    memory_budget:
        Bytes of dense intermediates the fit may allocate before the
        auto heuristic switches to the blocked path (default
        :data:`repro.core.neighbors.DEFAULT_MEMORY_BUDGET`, 1 GiB).
    fit_mode:
        Coarse switch over the neighbor+link stage: ``"auto"``
        (default) defers to ``neighbor_method`` / ``link_method``;
        ``"dense"`` / ``"blocked"`` / ``"parallel"`` force those
        kernels; ``"fused"`` runs the one-pass fused neighbor+link
        kernel (the neighbor graph is never materialised -- isolated
        points are pruned from the fused degree vector and the link
        table is subset exactly); ``"native"`` is the fused pass with
        :mod:`repro.native` block kernels, degrading to ``"fused"``
        with a single warning when no backend or an unsupported
        configuration rules it out.  ``fused``/``native`` require
        ``min_neighbors <= 1``; with a stricter pruning threshold the
        pipeline uses the ``parallel`` kernels instead (silently for
        ``fused``, with one warning for ``native``), since dropping
        points of positive degree changes link counts and the exact
        subset shortcut no longer applies.  All modes produce
        identical results (property-tested).
    workers:
        Process count for the parallel/fused kernels and the fast
        merge engine's component fan-out: an int, ``"auto"`` (CPU
        count capped at 8), or ``None`` for serial.
    merge_method:
        Engine for the Figure 3 merge phase: ``"heap"`` (the reference
        loop), ``"fast"`` (the component-partitioned array-backed
        engine of :mod:`repro.core.merge`), ``"native"`` (that engine
        with :mod:`repro.native` component kernels, degrading with one
        warning when unavailable), or ``"auto"`` (default: native when
        the :mod:`repro.native` C tier probed clean, else fast, for
        built-in goodness measures; heap for custom callables).
        Byte-identical results either way (property-tested).
    shard_block_rows / spill_dir / max_retries:
        Sharded-fit knobs (``fit_mode="sharded"``): rows per scoring
        block (default: the parallel kernels' budget-aware block
        size), the crash-safe run directory (default: a temporary
        directory, no resume), and how many times a died worker pool
        is rebuilt before the remaining units run in the coordinator.
        ``fit_mode="sharded"`` requires ``min_neighbors <= 1``, no
        ``min_cluster_size`` weeding, no ``initial_clusters`` and a
        built-in goodness measure; anything else degrades to the
        parallel kernels with one warning.  Results are byte-identical
        to the fused path (property-tested).
    seed:
        Seed for sampling and labeling-set draws; runs are fully
        deterministic for a fixed seed.
    """

    def __init__(
        self,
        k: int,
        theta: float,
        similarity: SimilarityFunction | None = None,
        f: Callable[[float], float] = default_f,
        sample_size: int | None = None,
        min_neighbors: int = 1,
        outlier_multiple: float = 3.0,
        min_cluster_size: int | None = None,
        labeling_fraction: float = 0.25,
        goodness_fn: GoodnessFunction = normalized_goodness,
        link_method: str = "auto",
        neighbor_method: str = "auto",
        memory_budget: int | None = None,
        fit_mode: str = "auto",
        workers: int | str | None = None,
        merge_method: str = "auto",
        shard_block_rows: int | None = None,
        spill_dir: "str | None" = None,
        max_retries: int = 2,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive when given")
        if fit_mode not in FIT_MODES:
            raise ValueError(
                f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}"
            )
        if merge_method not in MERGE_METHODS:
            raise ValueError(
                f"merge_method must be one of {MERGE_METHODS}, "
                f"got {merge_method!r}"
            )
        if shard_block_rows is not None and shard_block_rows < 1:
            raise ValueError("shard_block_rows must be positive when given")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.k = k
        self.theta = theta
        self.similarity = similarity
        self.f = f
        self.sample_size = sample_size
        self.min_neighbors = min_neighbors
        self.outlier_multiple = outlier_multiple
        self.min_cluster_size = min_cluster_size
        self.labeling_fraction = labeling_fraction
        self.goodness_fn = goodness_fn
        self.link_method = link_method
        self.neighbor_method = neighbor_method
        self.memory_budget = memory_budget
        self.fit_mode = fit_mode
        self.workers = workers
        self.merge_method = merge_method
        self.shard_block_rows = shard_block_rows
        self.spill_dir = spill_dir
        self.max_retries = max_retries
        self.seed = seed

    def fit(
        self,
        points: Any,
        label_remaining: bool = True,
        tracer: Tracer | None = None,
        initial_clusters: Sequence[Sequence[int]] | None = None,
    ) -> PipelineResult:
        """Run the pipeline over an in-memory point collection.

        ``points`` may be a :class:`TransactionDataset`, a
        :class:`CategoricalDataset`, or any sequence accepted by the
        similarity function.  When ``label_remaining`` is False the
        non-sampled points keep the label -1 (used by the Figure 5
        scalability bench, which excludes labeling).

        ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`.
        Every fit mode records one root ``fit`` span with a child span
        per phase (``sample`` / ``neighbors`` / ``links`` / ``cluster``
        / ``label``), and the kernels record counters and histograms
        into ``tracer.registry`` -- the parallel and fused kernels merge
        worker-side metric deltas back through the process pool, so the
        trace survives multiprocessing.  Phase timings land in
        ``PipelineResult.timings`` either way (they are read off the
        spans), so passing a tracer changes observability only, never
        results.

        ``initial_clusters`` is the resume seam used by streaming
        refits: a starting partition over the *input* points (indices
        into ``points``), as produced e.g. by labeling the sample
        against an earlier model.  Merging starts from that partition
        instead of singletons, exactly as
        :func:`~repro.core.rock.cluster_with_links` resumes (the
        outlier-weeding pause already relies on the same machinery).
        Members that fall outside the drawn sample or are pruned as
        isolated points drop out of their cluster; kept points not
        covered by any initial cluster start as singletons.
        """
        tracer = tracer if tracer is not None else Tracer()
        rng = random.Random(self.seed)
        n_total = len(points)
        if n_total == 0:
            raise ValueError("cannot cluster an empty dataset")
        workers = self.workers
        with tracer.span(
            "fit",
            n_points=n_total,
            fit_mode=self.fit_mode,
            k=self.k,
            theta=self.theta,
            workers=workers,
            merge_method=self.merge_method,
            resumed=initial_clusters is not None,
        ) as root_span:
            return self._fit_phases(
                points, n_total, label_remaining, rng, tracer,
                initial_clusters, root_span,
            )

    def _fit_phases(
        self,
        points: Any,
        n_total: int,
        label_remaining: bool,
        rng: random.Random,
        tracer: Tracer,
        initial_clusters: Sequence[Sequence[int]] | None = None,
        root_span: Any | None = None,
    ) -> PipelineResult:
        registry = tracer.registry
        timings: dict[str, float] = {}
        backends: dict[str, str] = {}

        # Resolve the merge engine once up front: the weeding pause
        # calls cluster_with_links twice, and resolving here means a
        # forced-but-unavailable "native" warns exactly once (the
        # resolved value re-resolves to itself, warning-free).
        from repro.core.merge import resolve_merge_method

        merge_method = resolve_merge_method(self.merge_method, self.goodness_fn)

        # -- 1. draw random sample ----------------------------------------
        with tracer.span("sample") as span:
            if self.sample_size is not None and self.sample_size < n_total:
                sampled = sample_indices(n_total, self.sample_size, rng=rng)
            else:
                sampled = list(range(n_total))
            sample_points = _subset(points, sampled)
            registry.set_gauge("fit.n_points", n_total)
            registry.set_gauge("fit.n_sampled", len(sampled))
        timings["sample"] = span.wall_seconds

        # -- 2 + 3. neighbors, isolated-point pruning, links ---------------
        min_neighbors = max(self.min_neighbors, 0)
        sharded_fit = False
        if self.fit_mode == "sharded":
            # the coordinator covers phases 2-4 in one go; anything it
            # cannot run bit-identically falls back to the parallel
            # kernels with one warning (same taxonomy as "native")
            shard_reason = None
            if min_neighbors > 1:
                shard_reason = "min_neighbors <= 1 required"
            elif self.min_cluster_size is not None:
                shard_reason = "outlier weeding pauses the merge loop"
            elif initial_clusters is not None:
                shard_reason = "resume from initial_clusters"
            else:
                from repro.shard.coordinator import shard_supported

                supported, reason = shard_supported(
                    sample_points, self.similarity, self.goodness_fn
                )
                if not supported:
                    shard_reason = reason
            if shard_reason is None:
                sharded_fit = True
            else:
                import warnings

                warnings.warn(
                    f"fit_mode='sharded' unavailable ({shard_reason}); "
                    "falling back to the parallel kernels",
                    RuntimeWarning,
                    stacklevel=3,
                )
        native_fit = False
        if sharded_fit:
            pass
        elif min_neighbors <= 1:
            if self.fit_mode == "native":
                from repro.native.links import native_fit_supported

                native_fit, reason = native_fit_supported(
                    sample_points, self.theta, self.similarity
                )
                if not native_fit:
                    import warnings

                    warnings.warn(
                        f"fit_mode='native' unavailable ({reason}); "
                        "falling back to the fused kernel",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            elif (
                self.fit_mode == "auto"
                and self.neighbor_method == "auto"
                and self.link_method == "auto"
            ):
                # auto promotion: whenever the C tier probed clean
                # (and REPRO_NATIVE is not off), but only where auto
                # would leave the dense path anyway -- small inputs
                # keep the dense kernel.
                from repro.core.neighbors import (
                    dense_similarity_bytes,
                    resolve_memory_budget,
                )
                from repro.native import auto_native

                # host-aware default: half the available physical
                # memory (clamped), so the switch-over tracks the
                # machine actually running the fit
                budget = resolve_memory_budget(self.memory_budget)
                if (
                    dense_similarity_bytes(len(sample_points)) > budget
                    and auto_native()
                ):
                    from repro.native.links import native_fit_supported

                    native_fit, _ = native_fit_supported(
                        sample_points, self.theta, self.similarity
                    )
        elif self.fit_mode == "native":
            import warnings

            warnings.warn(
                "fit_mode='native' requires min_neighbors <= 1; falling "
                "back to the parallel kernels",
                RuntimeWarning,
                stacklevel=3,
            )
        if sharded_fit:
            from repro.shard.coordinator import shard_fit

            sharded = shard_fit(
                sample_points,
                k=self.k,
                theta=self.theta,
                f_theta=self.f(self.theta),
                similarity=self.similarity,
                goodness_fn=self.goodness_fn,
                min_neighbors=min_neighbors,
                workers=self.workers,
                block_rows=self.shard_block_rows,
                spill_dir=self.spill_dir,
                max_retries=self.max_retries,
                memory_budget=self.memory_budget,
                tracer=tracer,
            )
            kept = sharded.kept
            discarded = sharded.discarded
            outlier_sample_positions = list(discarded)
            if len(kept) == 0:
                raise ValueError(
                    "every sampled point was pruned as an outlier; lower "
                    "theta or min_neighbors"
                )
            result = sharded.result
            backends["fit"] = "sharded"
            backends["links"] = "pair-count:numpy"  # in the shard workers
            # the coordinator's workers run the PR 5 component streams;
            # the stitch is the fast engine's k-way replay
            backends["merge"] = "fast"
            for phase in ("neighbors", "links", "cluster"):
                timings[phase] = sharded.timings.get(phase, 0.0)
        elif native_fit or (
            self.fit_mode in ("fused", "native") and min_neighbors <= 1
        ):
            # one-pass fused kernel: the neighbor graph never exists.
            # Isolated points are degree-0, appear in no neighbor list
            # and therefore in no pair increment, so subsetting the
            # full link table equals computing links post-pruning.
            from repro.parallel.links import fused_neighbor_links

            with tracer.span(
                "neighbors", fused=True, native=native_fit,
                n=len(sample_points),
            ) as span:
                if native_fit:
                    from repro.native import available_backend
                    from repro.native.links import native_neighbor_links

                    fused = native_neighbor_links(
                        sample_points, self.theta,
                        similarity=self.similarity,
                        workers=self.workers,
                        memory_budget=self.memory_budget,
                        registry=registry,
                    )
                    backends["fit"] = f"native:{available_backend()}"
                else:
                    fused = fused_neighbor_links(
                        sample_points, self.theta,
                        similarity=self.similarity,
                        workers=self.workers,
                        memory_budget=self.memory_budget,
                        registry=registry,
                    )
                    backends["fit"] = "fused"
                kept = np.flatnonzero(fused.degrees >= min_neighbors)
                discarded = np.flatnonzero(fused.degrees < min_neighbors)
                outlier_sample_positions = list(discarded)
                if len(kept) == 0:
                    raise ValueError(
                        "every sampled point was pruned as an outlier; lower "
                        "theta or min_neighbors"
                    )
            timings["neighbors"] = span.wall_seconds

            with tracer.span(
                "links", fused=True, producer=fused.links.producer
            ) as span:
                links = (
                    fused.links if len(kept) == fused.n
                    else fused.links.subset(kept)
                )
                registry.inc("fit.links.pairs", links.nnz_pairs())
            timings["links"] = span.wall_seconds
        else:
            if self.fit_mode == "auto":
                neighbor_method = self.neighbor_method
                link_method = self.link_method
            else:
                # "fused"/"native" with min_neighbors > 1 land here too:
                # pruning positive-degree points changes link counts, so
                # the subset shortcut is invalid and the parallel kernels
                # (identical output, two passes) take over.
                neighbor_method, link_method = resolve_fit_mode(self.fit_mode)
            backends["fit"] = neighbor_method
            with tracer.span(
                "neighbors", method=neighbor_method, n=len(sample_points)
            ) as span:
                graph = compute_neighbor_graph(
                    sample_points, self.theta, similarity=self.similarity,
                    method=neighbor_method, memory_budget=self.memory_budget,
                    workers=self.workers, registry=registry,
                )
                kept, discarded = prune_sparse_points(graph, min_neighbors)
                outlier_sample_positions = list(discarded)
                if len(kept) == 0:
                    raise ValueError(
                        "every sampled point was pruned as an outlier; lower "
                        "theta or min_neighbors"
                    )
                pruned_graph: NeighborGraph = (
                    graph if len(kept) == len(graph) else graph.subgraph(kept)
                )
            timings["neighbors"] = span.wall_seconds

            with tracer.span("links", method=link_method) as span:
                links = compute_links(
                    pruned_graph, method=link_method, workers=self.workers,
                    registry=registry,
                )
                span.attrs["producer"] = links.producer
            timings["links"] = span.wall_seconds

        # -- 4. cluster (with optional pause-and-weed) ----------------------
        # (a sharded fit already clustered inside the coordinator)
        if not sharded_fit:
            backends["links"] = links.producer
            starting_partition = (
                None
                if initial_clusters is None
                else _map_initial_clusters(
                    initial_clusters, sampled, kept, n_total
                )
            )
            if merge_method == "native":
                from repro.native import available_backend

                backends["merge"] = f"native:{available_backend()}"
            else:
                backends["merge"] = merge_method
            with tracer.span(
                "cluster", k=self.k, merge_method=merge_method
            ) as span:
                f_theta = self.f(self.theta)
                if self.min_cluster_size is not None:
                    pause_at = weeding_stop_count(
                        self.k, self.outlier_multiple
                    )
                    first = cluster_with_links(
                        links, k=pause_at, f_theta=f_theta,
                        initial_clusters=starting_partition,
                        goodness_fn=self.goodness_fn,
                        merge_method=merge_method, workers=self.workers,
                        registry=registry,
                    )
                    survivors, weeded = weed_small_clusters(
                        first.clusters, self.min_cluster_size
                    )
                    outlier_sample_positions.extend(
                        int(kept[p]) for p in weeded
                    )
                    if not survivors:
                        raise ValueError(
                            "outlier weeding removed every cluster; lower "
                            "min_cluster_size"
                        )
                    result = cluster_with_links(
                        links,
                        k=self.k,
                        f_theta=f_theta,
                        initial_clusters=survivors,
                        goodness_fn=self.goodness_fn,
                        merge_method=merge_method, workers=self.workers,
                        registry=registry,
                    )
                else:
                    result = cluster_with_links(
                        links, k=self.k, f_theta=f_theta,
                        initial_clusters=starting_partition,
                        goodness_fn=self.goodness_fn,
                        merge_method=merge_method, workers=self.workers,
                        registry=registry,
                    )
                registry.inc("fit.cluster.merges", len(result.merges))
            timings["cluster"] = span.wall_seconds

        # the fit.backend gauges (numeric) and root-span attrs (strings)
        # record which path actually ran, fallbacks included
        registry.set_gauge(
            "fit.backend.native_fit", int(backends.get("fit", "").startswith("native"))
        )
        registry.set_gauge(
            "fit.backend.native_merge",
            int(backends["merge"].startswith("native")),
        )
        if root_span is not None:
            root_span.attrs["fit_backend"] = backends.get("fit")
            root_span.attrs["merge_backend"] = backends["merge"]

        # translate pruned-graph indices -> original dataset indices
        clusters_original: list[list[int]] = [
            sorted(int(sampled[int(kept[p])]) for p in cluster)
            for cluster in result.clusters
        ]
        outlier_indices = sorted(int(sampled[p]) for p in outlier_sample_positions)
        registry.set_gauge("fit.n_sample_outliers", len(outlier_indices))

        # -- 5. label remaining data ----------------------------------------
        labeled = label_remaining and len(sampled) < n_total
        with tracer.span("label", enabled=labeled) as span:
            labels = labels_from_clusters(clusters_original, n_total)
            labeling_sets: list[list[Any]] | None = None
            if labeled:
                point_list = _as_list(points)
                labeling_sets = draw_labeling_sets(
                    clusters_original,
                    point_list,
                    fraction=self.labeling_fraction,
                    rng=rng,
                )
                labeler = ClusterLabeler(
                    labeling_sets,
                    theta=self.theta,
                    similarity=self.similarity,
                    f=self.f,
                )
                in_sample = set(sampled)
                rest = [i for i in range(n_total) if i not in in_sample]
                labels[rest] = labeler.assign_all(point_list[i] for i in rest)
                registry.inc("fit.labeled_points", len(rest))
        timings["label"] = span.wall_seconds

        full_clusters: list[list[int]] = [[] for _ in clusters_original]
        for index, label in enumerate(labels):
            if label >= 0:
                full_clusters[label].append(index)
        order = sorted(
            range(len(full_clusters)),
            key=lambda c: (-len(full_clusters[c]), full_clusters[c][0] if full_clusters[c] else -1),
        )
        remap = {old: new for new, old in enumerate(order)}
        labels = np.array(
            [remap[l] if l >= 0 else -1 for l in labels], dtype=np.int64
        )
        full_clusters = [full_clusters[old] for old in order]
        if labeling_sets is not None:
            labeling_sets = [labeling_sets[old] for old in order]

        registry.set_gauge("fit.n_clusters", len(full_clusters))
        registry.set_gauge("fit.n_unassigned", int((labels == -1).sum()))
        return PipelineResult(
            labels=labels,
            clusters=full_clusters,
            sample_indices=list(map(int, sampled)),
            outlier_indices=outlier_indices,
            rock_result=result,
            timings=timings,
            labeling_sets=labeling_sets,
            similarity=self.similarity,
            backends=backends,
        )

    def to_model(self, result: PipelineResult, points: Any | None = None):
        """Package a finished run as a servable :class:`~repro.serve.RockModel`.

        Uses the labeling sets the run actually assigned with, so model
        assignments reproduce the run's labels exactly.  For runs that
        never labeled (no sampling, or ``label_remaining=False``) fresh
        labeling sets are drawn from the final clusters, which requires
        the original ``points``.
        """
        from repro.serve.model import model_from_result

        return model_from_result(self, result, points)

    def fit_model(
        self,
        points: Any,
        label_remaining: bool = True,
        tracer: Tracer | None = None,
    ):
        """Fit and package in one call: ``(PipelineResult, RockModel)``."""
        result = self.fit(
            points, label_remaining=label_remaining, tracer=tracer
        )
        return result, self.to_model(result, points)


def _map_initial_clusters(
    initial_clusters: Sequence[Sequence[int]],
    sampled: Sequence[int],
    kept: Sequence[int],
    n_total: int,
) -> list[list[int]]:
    """Translate an input-space starting partition into pruned-sample space.

    ``initial_clusters`` index the original input points; the merge loop
    operates on positions within the pruned sample.  Members outside the
    sample or pruned as isolated points are dropped (their cluster
    shrinks), emptied clusters disappear, and kept points not covered by
    any cluster are appended as singletons so the partition always
    covers the pruned sample exactly.
    """
    sample_pos = {int(orig): pos for pos, orig in enumerate(sampled)}
    kept_pos = {int(orig): pos for pos, orig in enumerate(kept)}
    mapped: list[list[int]] = []
    covered: set[int] = set()
    for cluster in initial_clusters:
        members: list[int] = []
        for p in cluster:
            p = int(p)
            if not 0 <= p < n_total:
                raise ValueError(
                    f"initial cluster member {p} outside [0, {n_total})"
                )
            sp = sample_pos.get(p)
            if sp is None:
                continue
            kp = kept_pos.get(sp)
            if kp is None:
                continue
            if kp in covered:
                raise ValueError(
                    f"point {p} appears in multiple initial clusters"
                )
            covered.add(kp)
            members.append(kp)
        if members:
            mapped.append(sorted(members))
    mapped.extend([pos] for pos in range(len(kept)) if pos not in covered)
    return mapped


def _subset(points: Any, indices: Sequence[int]) -> Any:
    if isinstance(points, (TransactionDataset, CategoricalDataset)):
        return points.subset(indices)
    return [points[i] for i in indices]


def _as_list(points: Any) -> list[Any]:
    return list(points)
