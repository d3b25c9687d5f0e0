"""The ROCK agglomerative clustering loop (Section 4.3, Figure 3).

Given the link table over ``n`` points, the algorithm repeatedly merges
the pair of clusters with the highest goodness measure until ``k``
clusters remain, or until no pair of remaining clusters has any links
("it also stops clustering if the number of links between every pair of
the remaining clusters becomes zero" -- this is how the mushroom
experiment ends with 21 clusters when 20 were requested).

The bookkeeping matches Figure 3: a local heap ``q[i]`` per cluster
holding every cluster with a positive cross-link count ordered by
goodness, and a global heap ``Q`` of clusters ordered by each cluster's
best goodness.  On merging ``u`` and ``v`` into ``w``,
``link[x, w] = link[x, u] + link[x, v]`` for every ``x`` linked to
either parent, and the affected heaps are repaired.

The goodness measure is pluggable so the normalisation ablation (the
naive cross-link count of Section 4.2's cautionary paragraph) can reuse
the identical merge machinery.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.core.goodness import default_f, goodness as normalized_goodness
from repro.core.heaps import AddressableMaxHeap
from repro.core.labeling import clusters_from_labels, labels_from_clusters
from repro.core.links import LinkTable
from repro.core.similarity import SimilarityFunction

if TYPE_CHECKING:  # deferred: repro.obs must stay import-light here
    from repro.obs.trace import Tracer

GoodnessFunction = Callable[[int, int, int, float], float]
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class MergeStep:
    """One merge of the agglomeration: clusters ``left`` + ``right`` -> ``merged``."""

    left: int
    right: int
    merged: int
    goodness: float
    size: int

    @classmethod
    def from_arrays(
        cls, left: np.ndarray, right: np.ndarray, first_merged: int,
        goodness: np.ndarray, sizes: np.ndarray,
    ) -> list["MergeStep"]:
        """One step per array entry; step ``t`` merges into ``first_merged + t``.

        Fills each new instance's ``__dict__`` directly: the frozen
        ``__init__`` pays one ``object.__setattr__`` call per field.
        The steps compare, hash and print as constructed ones, and stay
        frozen.
        """
        new = object.__new__
        steps = []
        for u, v, w, g, size in zip(
            left.tolist(), right.tolist(),
            range(first_merged, first_merged + len(left)),
            goodness.tolist(), sizes.tolist(),
        ):
            step = new(cls)
            step.__dict__.update(left=u, right=v, merged=w, goodness=g, size=size)
            steps.append(step)
        return steps


class MergeArrays(NamedTuple):
    """A merge history as columns, the way the merge kernels emit it.

    Step ``t`` merges ``left[t]`` and ``right[t]`` into cluster
    ``first_merged + t`` with goodness ``goodness[t]``; the merged
    cluster has ``sizes[t]`` members.
    """

    left: np.ndarray
    right: np.ndarray
    goodness: np.ndarray
    sizes: np.ndarray
    first_merged: int


class RockResult:
    """Outcome of a ROCK clustering run.

    Attributes
    ----------
    clusters:
        Final clusters as sorted lists of point indices, ordered by
        decreasing size (ties: smallest member first).
    merges:
        The merge history, in order, as :class:`MergeStep` objects.
    stopped_early:
        True when merging halted because no cross-links remained before
        reaching ``k`` clusters.
    n_points:
        Number of points that were clustered.

    The component engine builds a result with :meth:`from_arrays`: it
    then holds the merge kernel's columns and a per-point label array,
    and builds ``merges`` and ``clusters`` the first time they are read
    (then caches them).  :attr:`n_merges`, :meth:`labels` and
    :attr:`merge_arrays` read the arrays without building any Python
    objects.  Results compare equal by their clusters, merge history,
    ``stopped_early`` and ``n_points``, whichever way they were built.
    """

    def __init__(
        self,
        clusters: list[list[int]],
        merges: Sequence[MergeStep] = (),
        stopped_early: bool = False,
        n_points: int = 0,
    ) -> None:
        self._clusters: list[list[int]] | None = clusters
        self._labels: np.ndarray | None = None
        self._merges: list[MergeStep] | None = list(merges)
        self._merge_arrays: MergeArrays | None = None
        self.stopped_early = stopped_early
        self.n_points = n_points

    @classmethod
    def from_arrays(
        cls, merges: MergeArrays, point_root: np.ndarray, stopped_early: bool
    ) -> "RockResult":
        """A result from the merge columns and each point's final cluster.

        ``point_root[p]`` is any id naming the final cluster of point
        ``p`` (``-1``: the point was not clustered); the ids are ranked
        into the reference cluster order here.
        """
        result = cls.__new__(cls)
        result._clusters = None
        result._labels = _ranked_labels(point_root)
        result._merges = None
        result._merge_arrays = merges
        result.stopped_early = stopped_early
        result.n_points = int(point_root.shape[0])
        return result

    @property
    def clusters(self) -> list[list[int]]:
        if self._clusters is None:
            self._clusters = clusters_from_labels(self._labels)
        return self._clusters

    @property
    def merges(self) -> list[MergeStep]:
        if self._merges is None:
            a = self._merge_arrays
            self._merges = MergeStep.from_arrays(
                a.left, a.right, a.first_merged, a.goodness, a.sizes
            )
        return self._merges

    @property
    def merge_arrays(self) -> MergeArrays | None:
        """The merge columns the result was built from, or ``None``
        when it was built from :class:`MergeStep` objects."""
        return self._merge_arrays

    @property
    def n_merges(self) -> int:
        """``len(merges)``, without building the steps."""
        if self._merges is None:
            return int(self._merge_arrays.left.shape[0])
        return len(self._merges)

    def labels(self) -> np.ndarray:
        """Per-point cluster index (aligned with ``clusters`` order)."""
        if self._labels is None:
            return labels_from_clusters(self.clusters, self.n_points)
        return self._labels.copy()

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.clusters, self.merges, self.stopped_early, self.n_points
        ) == (other.clusters, other.merges, other.stopped_early, other.n_points)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RockResult(k={len(self.clusters)}, n={self.n_points}, "
            f"stopped_early={self.stopped_early})"
        )


def _ranked_labels(point_root: np.ndarray) -> np.ndarray:
    """Each point's index in the reference cluster order: clusters by
    decreasing size, ties by smallest member; ``-1`` stays ``-1``."""
    labels = np.full(point_root.shape[0], -1, dtype=np.int64)
    members = np.flatnonzero(point_root >= 0)
    if members.size == 0:
        return labels
    _, first, inverse, counts = np.unique(
        point_root[members],
        return_index=True, return_inverse=True, return_counts=True,
    )
    # members ascend, so a cluster's first position is its smallest member
    rank = np.empty(counts.size, dtype=np.int64)
    rank[np.lexsort((first, -counts))] = np.arange(counts.size)
    labels[members] = rank[inverse]
    return labels


def cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
    registry: Any | None = None,
) -> RockResult:
    """Run the Figure 3 merge phase over a precomputed link table.

    Parameters
    ----------
    links:
        Point-pair link counts (from :func:`repro.core.links.compute_links`).
    k:
        Desired number of clusters.  Treated as a hint, exactly as in
        the paper: the run may end with more clusters when links run
        out.
    f_theta:
        The value ``f(theta)`` used by the goodness normalisation.
    initial_clusters:
        Optional starting partition (used by the outlier-weeding
        pipeline to resume clustering after small clusters are
        removed).  Defaults to singletons.  Must cover a subset of
        points disjointly; uncovered points are simply not clustered.
    goodness_fn:
        Merge-goodness strategy, ``(cross_links, ni, nj, f_theta) -> float``.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        the ``fit.cluster.merges`` counter from every engine and
        ``fit.cluster.components`` / ``fit.cluster.heap_ops`` from the
        component engine.

    The engine follows from what the code can observe
    (:func:`repro.core.merge.merge_engine`): a custom goodness callable
    runs :func:`heap_cluster_with_links`, the reference loop; the
    built-in measures run the component engine of
    :mod:`repro.core.merge`, on the :mod:`repro.native` kernel when the
    C tier probed clean and in Python otherwise.  Every engine returns
    the reference loop's result byte for byte (property-tested).
    """
    from repro.core.merge import fast_cluster_with_links, merge_engine

    if merge_engine(goodness_fn) == "heap":
        result = heap_cluster_with_links(
            links, k, f_theta, initial_clusters, goodness_fn
        )
    else:
        result = fast_cluster_with_links(
            links, k, f_theta, initial_clusters, goodness_fn, registry=registry
        )
    if registry is not None:
        registry.inc("fit.cluster.merges", result.n_merges)
    return result


def heap_cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
) -> RockResult:
    """The Figure 3 loop itself: the reference the faster engines match.

    Same parameters and result as :func:`cluster_with_links`.  A local
    heap per cluster and a global heap of clusters, repaired after
    every merge, exactly as in the paper; it evaluates ``goodness_fn``
    in both orientations, so it is also the one engine for custom
    (possibly asymmetric) goodness callables.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = links.n
    if initial_clusters is None:
        cluster_list: list[list[int]] = [[i] for i in range(n)]
    else:
        cluster_list = [sorted(int(p) for p in c) for c in initial_clusters]
        _validate_partition(cluster_list, n)

    members: dict[int, list[int]] = dict(enumerate(cluster_list))
    cross = _aggregate_cross_links(links, cluster_list)
    next_id = len(cluster_list)

    local: dict[int, AddressableMaxHeap] = {}
    for cid, row in cross.items():
        size = len(members[cid])
        local[cid] = AddressableMaxHeap.from_pairs(
            [
                (other, goodness_fn(count, size, len(members[other]), f_theta))
                for other, count in sorted(row.items())
            ]
        )

    global_heap = AddressableMaxHeap()
    for cid in members:
        global_heap.insert(cid, _best_key(local[cid]))

    merges: list[MergeStep] = []
    stopped_early = False
    while len(global_heap) > k:
        u, best = global_heap.peek()
        if best == _NEG_INF or best <= 0.0:
            # no positive-goodness merge remains anywhere; with the
            # normalised measure this happens exactly when no pair of
            # remaining clusters has links
            stopped_early = True
            break
        v, merge_goodness = local[u].peek()
        global_heap.delete(u)
        global_heap.delete(v)

        w = next_id
        next_id += 1
        # members stay unsorted during the run (only sizes matter here);
        # final clusters are sorted once at the end
        members[w] = members.pop(u) + members.pop(v)
        partners = (set(cross[u]) | set(cross[v])) - {u, v}
        cross[w] = {}
        heap_w = AddressableMaxHeap()
        for x in sorted(partners):
            count = cross[x].pop(u, 0) + cross[x].pop(v, 0)
            cross[x][w] = count
            cross[w][x] = count
            heap_x = local[x]
            if u in heap_x:
                heap_x.delete(u)
            if v in heap_x:
                heap_x.delete(v)
            g = goodness_fn(count, len(members[x]), len(members[w]), f_theta)
            heap_x.insert(w, g)
            heap_w.insert(x, g)
            global_heap.update(x, _best_key(heap_x))
        del cross[u], cross[v], local[u], local[v]
        local[w] = heap_w
        global_heap.insert(w, _best_key(heap_w))
        merges.append(
            MergeStep(left=u, right=v, merged=w, goodness=merge_goodness, size=len(members[w]))
        )

    final = [sorted(c) for c in members.values()]
    final.sort(key=lambda c: (-len(c), c[0] if c else -1))
    return RockResult(
        clusters=final,
        merges=merges,
        stopped_early=stopped_early,
        n_points=n,
    )


def rock(
    points: Any,
    k: int,
    theta: float,
    similarity: SimilarityFunction | None = None,
    f: Callable[[float], float] = default_f,
    goodness_fn: GoodnessFunction = normalized_goodness,
    weighted_links: bool = False,
    memory_budget: int | None = None,
    tracer: "Tracer | None" = None,
) -> RockResult:
    """Convenience end-to-end run on in-memory points (no sampling/labeling).

    Computes the neighbor graph at threshold ``theta``, the link table,
    and runs the merge loop to ``k`` clusters.  Every point is
    clustered: nothing is pruned.  ``weighted_links`` switches to the
    similarity-weighted link variant of
    :func:`repro.core.links.weighted_link_matrix` (a Section 3.2
    "alternative definition"; see ablation A7).

    The neighbor+link route comes from
    :func:`repro.core.pipeline.plan_fit`, exactly as for
    :class:`~repro.core.pipeline.RockPipeline`: ``memory_budget``
    (bytes; default host-aware) and the points' shared-item pair work
    decide between the dense route and the one-pass native/fused
    kernels.  Every route yields identical clusters.  For the full
    sample -> prune -> cluster -> weed -> label pipeline of Figure 2,
    use :class:`repro.core.pipeline.RockPipeline`.

    The merge phase runs :func:`cluster_with_links`, which picks its
    engine from the goodness measure and the :mod:`repro.native`
    probe; every engine produces byte-identical results.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`:
    ``neighbors`` / ``links`` / ``cluster`` spans are recorded and the
    kernels record metrics into ``tracer.registry``.  Tracing never
    changes results.
    """
    from repro.core.pipeline import plan_fit, run_fit_plan

    if tracer is None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    registry = tracer.registry
    plan = plan_fit(
        points, theta, similarity, min_neighbors=0,
        memory_budget=memory_budget, weighted_links=weighted_links,
    )
    links = run_fit_plan(
        plan, points, theta, similarity, min_neighbors=0, tracer=tracer,
    ).links
    from repro.core.merge import merge_engine

    with tracer.span("cluster", k=k, merge_backend=merge_engine(goodness_fn)):
        result = cluster_with_links(
            links, k=k, f_theta=f(theta), goodness_fn=goodness_fn,
            registry=registry,
        )
    return result


def _best_key(heap: AddressableMaxHeap) -> float:
    if not heap:
        return _NEG_INF
    return heap.peek()[1]


def _validate_partition(clusters: list[list[int]], n: int) -> None:
    seen: set[int] = set()
    for cluster in clusters:
        if not cluster:
            raise ValueError("initial clusters must be non-empty")
        for p in cluster:
            if not 0 <= p < n:
                raise ValueError(f"point index {p} outside [0, {n})")
            if p in seen:
                raise ValueError(f"point {p} appears in multiple initial clusters")
            seen.add(p)


def _aggregate_cross_links(
    links: LinkTable, clusters: list[list[int]]
) -> dict[int, dict[int, int]]:
    """Cross-cluster link counts summed over member point pairs."""
    cluster_of: dict[int, int] = {}
    for cid, cluster in enumerate(clusters):
        for p in cluster:
            cluster_of[p] = cid
    cross: dict[int, dict[int, int]] = {cid: {} for cid in range(len(clusters))}
    for i, j, count in links.pairs():
        ci = cluster_of.get(i)
        cj = cluster_of.get(j)
        if ci is None or cj is None or ci == cj:
            continue
        cross[ci][cj] = cross[ci].get(cj, 0) + count
        cross[cj][ci] = cross[cj].get(ci, 0) + count
    return cross
