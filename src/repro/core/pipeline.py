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

from repro.core.encoding import TransactionCSR, transaction_csr
from repro.core.goodness import default_f, goodness as normalized_goodness
from repro.core.labeling import (
    ClusterLabeler,
    clusters_from_labels,
    draw_labeling_sets,
)
from repro.core.links import (
    LinkTable,
    compute_links,
    link_tier,
    weighted_link_matrix,
)
from repro.core.merge import merge_engine
from repro.core.neighbors import (
    NeighborGraph,
    adjacency_from_similarity_matrix,
    compute_neighbor_graph,
    dense_similarity_bytes,
    resolve_memory_budget,
    similarity_matrix,
    supports_blocked,
)
from repro.core.outliers import weed_small_clusters, weeding_stop_count
from repro.core.rock import GoodnessFunction, RockResult, cluster_with_links
from repro.core.sampling import sample_indices
from repro.core.similarity import SimilarityFunction
from repro.data.records import CategoricalDataset
from repro.data.transactions import TransactionDataset
from repro.obs.trace import Tracer
from repro.parallel import pool


# The neighbor kernel's price gate.  Shared-item scoring (the native
# score_block, or the scipy product under REPRO_NATIVE=0) accumulates
# S = sum_items df (df - 1) / 2 pair increments; the dense route's row
# blocks score all n^2 / 2 pairs with BLAS.  An in-budget transaction
# fit runs the shared-item scorer while S < SHARED_PAIR_RATIO[tier] *
# n^2 / 2, one gate per link tier (repro.core.links.link_tier): the
# upper end, over two runs, of the gates that keep the summed time of
# the crossover sweep (bench_parallel_fit.py::test_neighbor_gate_crossover,
# results/neighbor_gate.txt, 2 vCPUs) within 1% of its least -- among
# equally fast gates, the one that builds no n x n matrices more often.
# The sweep runs planted baskets at n = 1,680 and Table 5 generator
# baskets at n = 1,000 and 2,000; on the C tier every Table 5 shape
# (S / (n^2/2) 1.9-3.8) scores faster natively.  Benchmarked shapes:
# fit-full 0.28, the paper-basket sample 3.8, stream-drift refits 2.3-3.8.
SHARED_PAIR_RATIO = {"cext": 4.0, "numpy": 0.75}


@dataclass(frozen=True)
class FitPlan:
    """The fit route :func:`plan_fit` chose, and why.

    Attributes
    ----------
    route:
        ``"dense"`` (row-block adjacency, then links by expected cost),
        ``"bruteforce"`` (pairwise similarity calls, for similarities
        without a block scorer), ``"native"`` / ``"fused"`` (the
        one-pass shared-item kernels of :mod:`repro.native.links` and
        :mod:`repro.parallel.links`) or ``"weighted"``
        (the similarity-weighted links of ablation A7).
    backend:
        The name ``PipelineResult.backends["fit"]`` records: the route,
        or ``"native:<tier>"`` for the native route.
    memory_budget:
        Bytes, resolved once; every kernel of the fit gets this number.
    reason:
        Why the route was chosen, in words: the budget comparison and,
        for transaction inputs, ``S`` against ``n^2 / 2``.
    shared_pairs:
        ``S``, the shared-item pair work of the input
        (:meth:`~repro.core.encoding.TransactionCSR.shared_pairs`), or
        ``None`` where the points have no item encoding.
    encoding:
        The :class:`~repro.core.encoding.TransactionCSR` ``S`` was
        counted on; :func:`run_fit_plan` hands it to the kernel, so a
        fit encodes its points once.  ``None`` makes the kernel encode.
    """

    route: str
    backend: str
    memory_budget: int
    reason: str
    shared_pairs: int | None = None
    encoding: TransactionCSR | None = field(default=None, compare=False, repr=False)


def plan_fit(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    *,
    min_neighbors: int = 1,
    memory_budget: int | None = None,
    weighted_links: bool = False,
) -> FitPlan:
    """Pick the neighbor+link route of one fit.

    The one place a fit route is chosen, from facts the code can
    observe: the similarity and point type, ``theta`` and
    ``min_neighbors``, one memory budget (an explicit ``memory_budget``
    or the host-aware default of
    :func:`~repro.core.neighbors.resolve_memory_budget`), the
    shared-item pair work ``S`` of transaction inputs, whether the
    :mod:`repro.native` C tier probed clean.  In order:

    1. ``weighted_links`` needs the dense similarity matrix.
    2. A similarity without a block scorer runs the pairwise oracle.
    3. Transactions (and ``A.v``-encoded records) are encoded once
       (:func:`~repro.core.encoding.transaction_csr`) and priced:
       ``S = sum_items df (df - 1) / 2`` pairs share an item, against
       the ``n^2 / 2`` pairs the dense route scores.
    4. A dense ``8 n^2``-byte similarity matrix that fits the budget
       runs the dense route, unless ``theta > 0`` and
       ``S < SHARED_PAIR_RATIO[tier] * n^2 / 2`` (``tier`` is ``cext``
       when the C tier probed clean, else ``numpy``): then the
       shared-item scorer runs, as in 5.
    5. Over budget, the native kernels run where they support the
       input, the fused kernel otherwise (``REPRO_NATIVE=0``,
       ``theta = 0``, missing-aware Jaccard, no compiler).

    The one-pass kernels count links by the rule
    :func:`~repro.core.links.compute_links` follows (one output row at
    a time below ``SQUARE_LINK_WORK[tier] * n^3`` pair work, the
    row-block square above it when the square fits the budget).  Every
    route produces identical clusters (property-tested).
    """
    budget = resolve_memory_budget(memory_budget)
    if weighted_links:
        return FitPlan(
            "weighted", "weighted", budget,
            "weighted links need the dense similarity matrix",
        )
    if not supports_blocked(points, similarity):
        return FitPlan(
            "bruteforce", "bruteforce", budget,
            "no block scorer for this similarity and point type",
        )
    n = len(points)
    encoding = transaction_csr(points, similarity)
    shared = None if encoding is None else encoding.shared_pairs()
    size = f"the dense {n}x{n} similarity matrix ({dense_similarity_bytes(n)} B)"
    if dense_similarity_bytes(n) <= budget:
        reason = f"{size} fits the {budget} B budget"
        if shared is None:
            return FitPlan("dense", "dense", budget, reason)
        reason += f"; S = {shared} shared-item pairs against n^2/2 = {n * n / 2:g}"
        ratio = SHARED_PAIR_RATIO[link_tier()]
        if theta <= 0 or shared >= ratio * n * n / 2:
            why = "theta = 0 links every pair" if theta <= 0 else (
                f"S >= {ratio:g} n^2/2"
            )
            return FitPlan(
                "dense", "dense", budget, f"{reason}: {why}, dense scoring",
                shared, encoding,
            )
        reason += f": S < {ratio:g} n^2/2, shared-item scoring"
    else:
        reason = f"{size} exceeds the {budget} B budget"
        if shared is not None:
            reason += f"; S = {shared} shared-item pairs"
    from repro.native import available_backend
    from repro.native.links import native_fit_supported

    source = points if encoding is None else encoding
    supported, why = native_fit_supported(source, theta, similarity)
    if supported:
        return FitPlan(
            "native", f"native:{available_backend()}", budget, reason,
            shared, encoding,
        )
    return FitPlan(
        "fused", "fused", budget, f"{reason}; native kernels unavailable ({why})",
        shared, encoding,
    )


@dataclass
class FitStages:
    """The executor's output: what the merge loop needs from a plan.

    ``kept`` / ``discarded`` are positions in the planned points;
    ``links`` counts links among the kept points, reindexed
    ``0 .. len(kept) - 1``; ``timings`` holds the ``neighbors`` and
    ``links`` span seconds.
    """

    kept: np.ndarray
    discarded: np.ndarray
    links: LinkTable
    timings: dict[str, float]


def run_fit_plan(
    plan: FitPlan,
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    *,
    min_neighbors: int = 1,
    tracer: Tracer,
) -> FitStages:
    """Run a plan: neighbors, then prune, then links.

    Points with fewer than ``min_neighbors`` neighbors are discarded
    (Section 4.6; 0 keeps every point) and links are counted over the
    rest.  The kernels read the plan's ``encoding`` when it has one, so
    the points are not encoded twice.  The fused and native kernels
    never build the graph, and the dense route counts on the whole
    one: when only isolated points are dropped, the full link table is
    subset exactly (an isolated point is in no neighbor list); when a
    point with neighbors is dropped, its links change the others', so
    the kernel runs a second pass over the kept points (the dense and
    weighted routes take the induced subgraph).
    """
    registry = tracer.registry
    timings: dict[str, float] = {}
    n = len(points)
    fused = None
    # the planner's encoding, so the kernels do not walk the points again
    source = points if plan.encoding is None else plan.encoding
    with tracer.span("neighbors", route=plan.route, n=n) as span:
        if plan.shared_pairs is not None:
            span.attrs["shared_pairs"] = plan.shared_pairs
            registry.set_gauge("fit.plan.shared_pairs", plan.shared_pairs)
        if plan.route in ("native", "fused"):
            fused = _fused_pass(plan, source, theta, similarity, registry)
            degrees = fused.degrees
        else:
            if plan.route == "weighted":
                sim = similarity_matrix(points, similarity)
                graph = NeighborGraph(
                    adjacency_from_similarity_matrix(sim, theta), theta=theta
                )
            else:
                method = "vectorized" if plan.route == "dense" else "bruteforce"
                graph = compute_neighbor_graph(
                    source, theta, similarity=similarity, method=method
                )
            degrees = graph.degrees()
        kept = np.flatnonzero(degrees >= min_neighbors)
        discarded = np.flatnonzero(degrees < min_neighbors)
        if n and not len(kept):
            raise ValueError(
                "every sampled point was pruned as an outlier; lower "
                "theta or min_neighbors"
            )
        strict = degrees[discarded].any()
        if fused is not None and strict:
            fused = _fused_pass(
                plan, _subset(source, kept), theta, similarity, registry
            )
        elif fused is None and len(kept) < n and (strict or plan.route == "weighted"):
            graph = graph.subgraph(kept)
            if plan.route == "weighted":
                sim = sim[np.ix_(kept, kept)]
    timings["neighbors"] = span.wall_seconds

    with tracer.span("links", route=plan.route) as span:
        if fused is not None:
            links = fused.links
        elif plan.route == "weighted":
            links = LinkTable.from_dense(weighted_link_matrix(graph, sim))
        else:
            links = compute_links(graph)
        if links.n != len(kept):
            links = links.subset(kept)
        registry.inc("fit.links.pairs", links.nnz_pairs())
        span.attrs["producer"] = links.producer
    timings["links"] = span.wall_seconds
    return FitStages(kept=kept, discarded=discarded, links=links, timings=timings)


def _fused_pass(
    plan: FitPlan,
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None,
    registry: Any,
) -> Any:
    """One native or fused neighbor+link pass (looked up at call time)."""
    if plan.route == "native":
        import repro.native.links as kernels

        kernel = kernels.native_neighbor_links
    else:
        import repro.parallel.links as kernels

        kernel = kernels.fused_neighbor_links
    return kernel(
        points, theta, similarity=similarity,
        memory_budget=plan.memory_budget, registry=registry,
    )


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
        ``{"fit": "native:cext", "links": "rows:cext", "merge":
        "native:cext"}`` or ``{"fit": "dense", "links": "dense-blocks",
        "merge": "fast"}`` -- the resolved backends (``fit`` is the
        :class:`FitPlan` backend: ``dense``, ``bruteforce``, ``fused``,
        or ``native:cext``; ``links`` the link kernel, by
        the same rule on every route),
        not the requested modes, so benchmarks and model metadata can
        tell a silent fallback from the real thing.
    threads:
        The thread count the fit's block kernels derived
        (:func:`~repro.parallel.pool.thread_count`), also the
        ``fit.threads`` gauge and the root span's ``threads``.
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
    threads: int = 1

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
    memory_budget:
        Bytes of dense intermediates the fit may allocate (default: the
        host-aware :func:`repro.core.neighbors.resolve_memory_budget`).
        :func:`plan_fit` resolves it once and passes the number to
        every kernel: within it the fit runs the dense route unless the
        points share few items (then the shared-item kernels, see
        :data:`SHARED_PAIR_RATIO`), past it the native or fused
        one-pass kernels.
        ``backends["fit"]`` records the route that ran.  All routes
        produce identical results (property-tested).

        The native and fused kernels score row blocks on
        :func:`~repro.parallel.pool.thread_count` threads (the CPUs
        the process may run on, capped at 8; one inline block below
        about 2,000 points), recorded as :attr:`PipelineResult.threads`.
        The merge phase runs :func:`~repro.core.rock.cluster_with_links`,
        whose engine follows from ``goodness_fn`` and the
        :mod:`repro.native` probe; ``backends["merge"]`` records the
        one that ran.
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
        memory_budget: int | None = None,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive when given")
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
        self.memory_budget = memory_budget
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
        Every fit records one root ``fit`` span with a child span
        per phase (``sample`` / ``neighbors`` / ``links`` / ``cluster``
        / ``label``), and the kernels record counters and histograms
        into ``tracer.registry``, from every block thread.  Phase
        timings land in
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
        threads = pool.thread_count()
        tracer.registry.set_gauge("fit.threads", threads)
        with tracer.span(
            "fit",
            n_points=n_total,
            k=self.k,
            theta=self.theta,
            threads=threads,
            resumed=initial_clusters is not None,
        ) as root_span:
            result = self._fit_phases(
                points, n_total, label_remaining, rng, tracer,
                initial_clusters, root_span,
            )
        result.threads = threads
        return result

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

        # -- 1. draw random sample ----------------------------------------
        with tracer.span("sample") as span:
            if self.sample_size is not None and self.sample_size < n_total:
                sampled = sample_indices(n_total, self.sample_size, rng=rng)
                sample_points = _subset(points, sampled)
            else:
                sampled = list(range(n_total))
                sample_points = points
            registry.set_gauge("fit.n_points", n_total)
            registry.set_gauge("fit.n_sampled", len(sampled))
        timings["sample"] = span.wall_seconds

        # -- 2 + 3. neighbors, isolated-point pruning, links ---------------
        min_neighbors = max(self.min_neighbors, 0)
        plan = plan_fit(
            sample_points, self.theta, self.similarity,
            min_neighbors=min_neighbors, memory_budget=self.memory_budget,
        )
        backends["fit"] = plan.backend
        stages = run_fit_plan(
            plan, sample_points, self.theta, self.similarity,
            min_neighbors=min_neighbors, tracer=tracer,
        )
        kept, links = stages.kept, stages.links
        outlier_sample_positions = list(stages.discarded)
        timings.update(stages.timings)
        backends["links"] = links.producer

        # -- 4. cluster (with optional pause-and-weed) ----------------------
        starting_partition = (
            None
            if initial_clusters is None
            else _map_initial_clusters(initial_clusters, sampled, kept, n_total)
        )
        backends["merge"] = merge_engine(self.goodness_fn)
        with tracer.span(
            "cluster", k=self.k, merge_backend=backends["merge"]
        ) as span:
            f_theta = self.f(self.theta)
            if self.min_cluster_size is not None:
                pause_at = weeding_stop_count(self.k, self.outlier_multiple)
                first = cluster_with_links(
                    links, k=pause_at, f_theta=f_theta,
                    initial_clusters=starting_partition,
                    goodness_fn=self.goodness_fn,
                    registry=registry,
                )
                survivors, weeded = weed_small_clusters(
                    first.clusters, self.min_cluster_size
                )
                outlier_sample_positions.extend(int(kept[p]) for p in weeded)
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
                    registry=registry,
                )
            else:
                result = cluster_with_links(
                    links, k=self.k, f_theta=f_theta,
                    initial_clusters=starting_partition,
                    goodness_fn=self.goodness_fn,
                    registry=registry,
                )
        timings["cluster"] = span.wall_seconds

        # the fit.backend gauges (numeric) and root-span attrs (strings)
        # record which path actually ran, fallbacks included
        registry.set_gauge(
            "fit.backend.native_fit", int(plan.route == "native")
        )
        registry.set_gauge(
            "fit.backend.native_merge",
            int(backends["merge"].startswith("native")),
        )
        if root_span is not None:
            root_span.attrs["fit_backend"] = plan.backend
            root_span.attrs["fit_reason"] = plan.reason
            root_span.attrs["merge_backend"] = backends["merge"]

        # translate pruned-graph indices -> original dataset indices
        sampled_arr = np.asarray(sampled, dtype=np.int64)
        original = sampled_arr[np.asarray(kept, dtype=np.int64)]
        outlier_indices = sorted(int(sampled[p]) for p in outlier_sample_positions)
        registry.set_gauge("fit.n_sample_outliers", len(outlier_indices))

        # -- 5. label remaining data ----------------------------------------
        labeled = label_remaining and len(sampled) < n_total
        with tracer.span("label", enabled=labeled) as span:
            labels = np.full(n_total, -1, dtype=np.int64)
            labels[original] = result.labels()
            n_clusters = int(labels.max(initial=-1)) + 1
            labeling_sets: list[list[Any]] | None = None
            if labeled:
                labeling_sets = draw_labeling_sets(
                    clusters_from_labels(labels),
                    points,
                    fraction=self.labeling_fraction,
                    rng=rng,
                )
                labeler = ClusterLabeler(
                    labeling_sets,
                    theta=self.theta,
                    similarity=self.similarity,
                    f=self.f,
                )
                unsampled = np.ones(n_total, dtype=bool)
                unsampled[sampled_arr] = False
                rest = np.flatnonzero(unsampled)
                labels[rest] = labeler.assign_all(_subset(points, rest))
                candidates = labeler.candidates
                registry.inc("fit.label.candidates", candidates)
                span.attrs["candidates"] = candidates
                registry.inc("fit.labeled_points", len(rest))
        timings["label"] = span.wall_seconds

        # final cluster order: size descending, then first member
        members = np.flatnonzero(labels >= 0)
        member_labels = labels[members]
        sizes = np.bincount(member_labels, minlength=n_clusters)
        # members grouped by cluster, ascending point ids inside each
        grouped = members[np.argsort(member_labels, kind="stable")]
        bounds = np.zeros(n_clusters + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        first = np.full(n_clusters, -1, dtype=np.int64)
        nonempty = sizes > 0
        first[nonempty] = grouped[bounds[:-1][nonempty]]
        order = np.lexsort((first, -sizes))
        new_label = np.empty(n_clusters, dtype=np.int64)
        new_label[order] = np.arange(n_clusters)
        labels[members] = new_label[member_labels]
        order = order.tolist()
        grouped_list = grouped.tolist()
        bounds_list = bounds.tolist()
        full_clusters = [
            grouped_list[bounds_list[old] : bounds_list[old + 1]]
            for old in order
        ]
        if labeling_sets is not None:
            labeling_sets = [labeling_sets[old] for old in order]

        registry.set_gauge("fit.n_clusters", len(full_clusters))
        registry.set_gauge("fit.n_unassigned", int((labels == -1).sum()))
        return PipelineResult(
            labels=labels,
            clusters=full_clusters,
            sample_indices=sampled_arr.tolist(),
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
    if isinstance(points, (TransactionDataset, CategoricalDataset, TransactionCSR)):
        return points.subset(indices)
    return [points[i] for i in indices]

