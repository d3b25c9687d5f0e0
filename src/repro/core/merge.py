"""The component merge engine: component-partitioned, array-backed agglomeration.

The default engine of :func:`repro.core.rock.cluster_with_links` for
the built-in goodness measures (:func:`merge_engine` says which engine
runs).  It reproduces the Figure 3 reference loop
(:func:`repro.core.rock.heap_cluster_with_links`) **byte for byte** --
the same clusters, the same :class:`~repro.core.rock.MergeStep`
history in the same order with bitwise-identical goodness values, the
same ``stopped_early`` flag -- while replacing the dict-of-dicts +
addressable-heap bookkeeping with two structural ideas:

**1. Component partitioning.**  Links are positive only within a
connected component of the neighbor graph (the QROCK property already
documented in :mod:`repro.core.components`), so cross-cluster goodness
is positive only within a component of the *cluster* link graph and
the greedy loop decomposes exactly: each component is agglomerated
independently to exhaustion, recording its greedy merge stream, and the
streams are then k-way **replayed** in descending goodness order until
``k`` clusters remain.  When the C tier probed clean, the whole phase
-- the components, every component's inner loop and the replay -- is
two :mod:`repro.native` kernel calls over the packed arrays of
:func:`pack_components`; otherwise :func:`_component_labels`' numpy
path, :func:`component_merge_stream` and :func:`_replay_streams` run
it.  Both produce the same merge columns and the same final cluster id
for every initial cluster, and the
:class:`~repro.core.rock.RockResult` holds those arrays: its
``MergeStep`` list and cluster lists are built only when read.

*Why the replay equals the global greedy order.*  The reference picks
``u`` = the alive cluster with the globally best goodness (ties: the
smallest cluster id -- heap insertion order equals id-creation order,
see below) and merges it with ``v`` = its best partner.  Goodness is
positive only within a component, merging never crosses components,
and a merge changes goodness values only inside its own component.  So
the state of every component evolves exactly as in its standalone run,
and at any instant the reference's next merge is the *head* (next
unconsumed entry) of some component's stream: the head whose goodness
is maximal, tie-broken by the smallest ``u`` id.  A per-component
stream is **not** sorted by goodness (agglomeration is non-monotone),
but its head is always that component's next greedy move, so comparing
heads only -- a k-way merge over streams -- reproduces the global
order.  Merged-cluster ids are assigned at replay time in replay
order, which is exactly the order the reference creates them.

*Tie-breaking.*  The reference's :class:`~repro.core.heaps.AddressableMaxHeap`
breaks ties by insertion sequence, and insertion order equals cluster-id
order everywhere (initial clusters are inserted in id order; merged
clusters are inserted at creation, and ``update()`` preserves a key's
sequence number).  The global tie rule therefore reduces to "smallest
``u`` id, then smallest partner id", which both the per-component runs
(local ids are order-isomorphic to global ids) and the replay heap
(``(-goodness, u_global_id)`` keys) implement deterministically.

**2. Slot-indexed inner loop with lazy heaps.**  Within a component,
clusters live in int-indexed slots (flat lists for sizes and liveness,
plain dicts for the sparse cross-link rows) and selection is fully
lazy: each cluster keeps a ``heapq`` of ``(-goodness, partner)``
entries whose values are *immutable* -- a cross-link count never
changes while both endpoints are alive, and sizes are frozen until a
cluster dies -- so an entry is valid exactly when its partner is still
alive and stale entries are simply skipped on access.  A global token
heap of ``(-goodness, cluster)`` candidates drives selection the same
way (a token is honoured only if it still equals the cluster's cleaned
local head; otherwise the true best is re-armed).  Nothing is ever
rescanned or sifted in place: a merge costs one goodness evaluation
and O(log) heap pushes per surviving partner, with the memoized
``n^(1+2f)`` power table of :mod:`repro.core.goodness` replacing the
two ``pow()`` calls per candidate, and the initial pair goodness
evaluated in one vectorized kernel call.  No addressable-heap deletes,
no per-merge ``O(degree)`` recomputes.

Bitwise equivalence is property-tested against the reference loop over
random link tables, both goodness measures, ``f(theta)`` in {0,
default} and resumed ``initial_clusters`` partitions, on both inner
loops (``tests/test_merge_engine.py``, ``tests/test_native_kernels.py``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from repro.core.goodness import (
    goodness as normalized_goodness,
    merge_kernel_for,
)
from repro.core.links import LinkTable
from repro.core.rock import (
    GoodnessFunction,
    MergeArrays,
    RockResult,
    _validate_partition,
)

__all__ = [
    "ComponentProblem",
    "MergeStream",
    "PackedComponents",
    "component_merge_stream",
    "fast_cluster_with_links",
    "merge_engine",
    "pack_components",
]


def merge_engine(goodness_fn: GoodnessFunction = normalized_goodness) -> str:
    """The engine :func:`~repro.core.rock.cluster_with_links` runs for
    ``goodness_fn``, named as ``PipelineResult.backends["merge"]``
    records it.

    ``"heap"`` (the Figure 3 reference loop) for a custom goodness
    callable, whose evaluation order the component engine cannot
    promise to reproduce; ``"native:<backend>"`` when the
    :mod:`repro.native` C tier probed clean and ``REPRO_NATIVE`` is not
    off; ``"fast"`` (this module's Python inner loop) otherwise.
    """
    if merge_kernel_for(goodness_fn, 0.0) is None:
        return "heap"
    from repro.native import available_backend

    backend = available_backend()
    return "fast" if backend is None else f"native:{backend}"


@dataclass
class ComponentProblem:
    """One component of the cluster link graph, in local coordinates.

    ``global_ids`` maps local slot ``0..s-1`` back to the initial
    cluster ids (ascending, so local order is order-isomorphic to
    global order -- the tie-breaking invariant).  Pairs are local and
    satisfy ``pair_lo < pair_hi``.
    """

    index: int
    global_ids: np.ndarray
    sizes: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_count: np.ndarray


@dataclass
class MergeStream:
    """A component's greedy merge sequence, run to exhaustion.

    Entry ``t`` merges local clusters ``left[t]`` and ``right[t]`` into
    local id ``s + t``; ``goodness`` carries the bitwise reference
    goodness and ``sizes`` the merged member count.
    """

    left: np.ndarray
    right: np.ndarray
    goodness: np.ndarray
    sizes: np.ndarray
    heap_ops: int = 0

    def __len__(self) -> int:
        return int(self.left.shape[0])


def fast_cluster_with_links(
    links: LinkTable,
    k: int,
    f_theta: float,
    initial_clusters: Sequence[Sequence[int]] | None = None,
    goodness_fn: GoodnessFunction = normalized_goodness,
    registry: Any | None = None,
) -> RockResult:
    """Component-partitioned equivalent of
    :func:`repro.core.rock.heap_cluster_with_links` (same contract, same
    byte-for-byte result) for the built-in goodness measures.

    The whole phase runs in one :mod:`repro.native` kernel call when
    :func:`repro.native.get_kernels` probed clean, else in Python
    (:func:`component_merge_stream` + :func:`_replay_streams`).  A
    custom goodness callable raises ``ValueError``:
    :func:`~repro.core.rock.cluster_with_links`
    sends those to the reference loop.  ``registry`` receives
    ``fit.cluster.components`` / ``fit.cluster.heap_ops`` counters.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = links.n
    kernel = merge_kernel_for(goodness_fn, f_theta)
    if kernel is None:
        raise ValueError(
            "the component merge engine runs the built-in goodness "
            "measures only; custom callables run heap_cluster_with_links"
        )
    if initial_clusters is None:
        # the default singleton start: cluster p is point p
        m = n
        sizes = np.ones(n, dtype=np.int64)
        point_cluster = None
        lo, hi, counts = links.pair_arrays()
    else:
        cluster_list = [sorted(int(p) for p in c) for c in initial_clusters]
        _validate_partition(cluster_list, n)
        m = len(cluster_list)
        sizes = np.fromiter(map(len, cluster_list), np.int64, count=m)
        point_cluster = np.full(n, -1, dtype=np.int64)
        point_cluster[
            np.fromiter(
                chain.from_iterable(cluster_list), np.int64, int(sizes.sum())
            )
        ] = np.repeat(np.arange(m, dtype=np.int64), sizes)
        lo, hi, counts = _cross_pair_arrays(links, point_cluster, m)

    packed = pack_components(m, sizes, lo, hi, counts)
    if registry is not None:
        registry.inc("fit.cluster.components", len(packed))

    from repro.native import get_kernels

    backend = get_kernels()
    if backend is None:
        problems = packed.problems()
        streams = [component_merge_stream(p, kernel) for p in problems]
        if registry is not None:
            registry.inc(
                "fit.cluster.heap_ops", sum(s.heap_ops for s in streams)
            )
        merges, roots, stopped_early = _replay_streams(
            problems, streams, k, m, registry
        )
    else:
        from repro.native.merge import native_merge_components

        run = native_merge_components(packed, kernel, backend, k, m)
        if registry is not None:
            registry.inc("fit.cluster.heap_ops", run.heap_ops)
        merges = MergeArrays(run.left, run.right, run.goodness, run.sizes, m)
        roots, stopped_early = run.roots, run.stopped_early

    if point_cluster is None:
        point_root = roots
    else:
        point_root = np.full(n, -1, dtype=np.int64)
        covered = point_cluster >= 0
        point_root[covered] = roots[point_cluster[covered]]
    return RockResult.from_arrays(merges, point_root, stopped_early)


def _cross_pair_arrays(
    links: LinkTable, cluster_of: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-link counts between the ``m`` clusters of a partition, as
    ``(lo, hi, counts)`` arrays; ``cluster_of[p]`` is point ``p``'s
    cluster (``-1``: not covered).

    The vectorized counterpart of
    :func:`repro.core.rock._aggregate_cross_links` (with the default
    singleton start the link table's pair arrays *are* the answer).
    ``np.bincount`` sums each cluster pair's counts one at a time in
    pair-code order -- the same float additions, in the same order, as
    the reference aggregation, so weighted counts match it bit for bit
    (integer sums stay exact below ``2**53``).
    """
    i_arr, j_arr, counts = links.pair_arrays()
    ci = cluster_of[i_arr]
    cj = cluster_of[j_arr]
    keep = (ci >= 0) & (cj >= 0) & (ci != cj)
    ci, cj = ci[keep], cj[keep]
    codes, group = np.unique(
        np.minimum(ci, cj) * m + np.maximum(ci, cj), return_inverse=True
    )
    summed = np.bincount(group, weights=counts[keep], minlength=codes.size)
    return codes // m, codes % m, summed


@dataclass
class PackedComponents:
    """Every merge sub-problem of the cluster link graph, concatenated.

    Component ``c`` (ordered by smallest member id) owns slots
    ``slot_offsets[c]:slot_offsets[c+1]`` of ``global_ids`` (ascending
    initial cluster ids) and ``sizes``, and pairs
    ``pair_offsets[c]:pair_offsets[c+1]`` of ``pair_lo`` / ``pair_hi``
    (local slot ids, ``lo < hi``) and ``pair_count``.  ``index`` holds
    each component's position among all components, isolated clusters
    included.  The native engine takes these arrays as they are;
    :meth:`problems` slices them per component for the Python inner
    loop.
    """

    index: np.ndarray
    slot_offsets: np.ndarray
    pair_offsets: np.ndarray
    global_ids: np.ndarray
    sizes: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_count: np.ndarray

    def __len__(self) -> int:
        return int(self.index.shape[0])

    def problems(self) -> list[ComponentProblem]:
        slots = self.slot_offsets.tolist()
        pairs = self.pair_offsets.tolist()
        return [
            ComponentProblem(
                index=index,
                global_ids=self.global_ids[slots[c] : slots[c + 1]],
                sizes=self.sizes[slots[c] : slots[c + 1]],
                pair_lo=self.pair_lo[pairs[c] : pairs[c + 1]],
                pair_hi=self.pair_hi[pairs[c] : pairs[c + 1]],
                pair_count=self.pair_count[pairs[c] : pairs[c + 1]],
            )
            for c, index in enumerate(self.index.tolist())
        ]


def pack_components(
    m: int,
    sizes: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
) -> PackedComponents:
    """Split the cluster link graph into independent merge sub-problems.

    Components are ordered by their smallest member id (a canonical
    order independent of the labeling backend); clusters with no cross
    links form no problem at all -- they can never merge and are carried
    straight through to the final clustering.  Pairs keep their input
    order within a component.
    """
    if m == 0 or lo.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return PackedComponents(
            index=empty,
            slot_offsets=np.zeros(1, dtype=np.int64),
            pair_offsets=np.zeros(1, dtype=np.int64),
            global_ids=empty,
            sizes=empty,
            pair_lo=empty,
            pair_hi=empty,
            pair_count=np.zeros(0, dtype=np.float64),
        )
    comp_of = _component_labels(m, lo, hi)  # numbered by smallest member
    n_comp = int(comp_of.max()) + 1

    member_order = np.argsort(comp_of, kind="stable")  # ascending ids per comp
    comp_size = np.bincount(comp_of, minlength=n_comp)
    group_starts = np.r_[0, np.cumsum(comp_size)[:-1]]
    local_of = np.empty(m, dtype=np.int64)
    local_of[member_order] = np.arange(m, dtype=np.int64) - np.repeat(
        group_starts, comp_size
    )
    # an isolated cluster (a one-member component) has no pairs
    kept = np.flatnonzero(comp_size >= 2)
    member_kept = comp_size[comp_of[member_order]] >= 2
    global_ids = member_order[member_kept]

    pair_comp = comp_of[lo]
    pair_order = np.argsort(pair_comp, kind="stable")
    pair_size = np.bincount(pair_comp, minlength=n_comp)[kept]
    return PackedComponents(
        index=kept,
        slot_offsets=np.r_[0, np.cumsum(comp_size[kept])].astype(np.int64),
        pair_offsets=np.r_[0, np.cumsum(pair_size)].astype(np.int64),
        global_ids=global_ids,
        sizes=sizes[global_ids],
        pair_lo=local_of[lo][pair_order],
        pair_hi=local_of[hi][pair_order],
        pair_count=counts[pair_order],
    )


def _component_labels(m: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``m`` nodes under the
    undirected edges ``lo[e]-hi[e]``, numbered by smallest member (the
    numbering of ``scipy.sparse.csgraph.connected_components``).

    The C tier's union-find kernel when it probed clean.  Otherwise
    numpy label propagation: every round hangs each tree root under
    the smallest root it shares an edge with, then pointer jumping
    sends every node to its root.  Roots only ever move to smaller
    ids, so a root is its tree's smallest member, and the number of
    trees in a component at least halves per round.
    """
    from repro.native import get_kernels

    backend = get_kernels()
    if backend is not None:
        return backend.component_labels(m, lo, hi)
    parent = np.arange(m, dtype=np.int64)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    while lo.size:
        a = parent[lo]
        b = parent[hi]
        crossing = a != b  # an edge inside one tree stays inside it
        if not crossing.any():
            break
        lo, hi, a, b = lo[crossing], hi[crossing], a[crossing], b[crossing]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(m, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[parent]


def component_merge_stream(
    problem: ComponentProblem, kernel: Any
) -> MergeStream:
    """Agglomerate one component to exhaustion, recording its stream.

    Local merge ``t`` creates slot ``s + t``; slots are never reused,
    so a slot's id doubles as its creation order and the reference
    tie-break ("smallest id among maximal-goodness clusters, then
    smallest partner id") is implemented directly on ids.

    Selection is doubly lazy.  Each slot owns a local ``heapq`` of
    ``(-goodness, partner)`` entries whose values never go stale (the
    count and both sizes are frozen while the partner lives), so the
    slot's true best is its head after discarding dead partners -- ties
    resolve to the smallest partner id by the tuple order, matching the
    reference local heap's insertion-sequence rule.  A global heap of
    ``(-goodness, slot)`` *tokens* proposes initiators; a popped token
    is honoured only when it still equals the slot's cleaned head
    (otherwise the slot's current best is pushed back, keeping every
    live slot covered by a token at least as good as its true best).
    Equal-goodness tokens pop in slot-id order -- the reference's
    global tie-break.  ``best_token`` tracks a lower bound on each
    slot's best token still in the heap, letting the partner loop skip
    redundant token pushes.
    """
    s = int(problem.global_ids.shape[0])
    neg_inf = -math.inf
    filler = [0] * (s - 1)
    size: list[int] = problem.sizes.tolist() + filler
    alive: list[bool] = [True] * s + [False] * (s - 1)
    rows: list[dict[int, float] | None] = [
        {} for _ in range(s)
    ] + [None] * (s - 1)
    local: list[list[tuple[float, int]] | None] = [
        [] for _ in range(s)
    ] + [None] * (s - 1)
    best_token: list[float] = [neg_inf] * (2 * s - 1)

    pair_g = kernel.vector(
        problem.pair_count,
        problem.sizes[problem.pair_lo],
        problem.sizes[problem.pair_hi],
    ).tolist()
    for a, b, count, g in zip(
        problem.pair_lo.tolist(),
        problem.pair_hi.tolist(),
        problem.pair_count.tolist(),
        pair_g,
    ):
        rows[a][b] = count
        rows[b][a] = count
        local[a].append((-g, b))
        local[b].append((-g, a))

    heapify = heapq.heapify
    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: list[tuple[float, int]] = []
    for x in range(s):
        h = local[x]
        if not h:
            continue
        heapify(h)
        head_neg = h[0][0]
        if head_neg < 0.0:  # best goodness > 0
            heap.append((head_neg, x))
            best_token[x] = -head_neg
    heapify(heap)
    heap_ops = len(heap)
    scalar = kernel.bind(int(problem.sizes.sum()))

    left: list[int] = []
    right: list[int] = []
    goodness_out: list[float] = []
    sizes_out: list[int] = []
    alive_count = s
    next_slot = s
    while alive_count > 1 and heap:
        neg_g, u = heappop(heap)
        heap_ops += 1
        if not alive[u]:
            continue
        hu = local[u]
        while hu and not alive[hu[0][1]]:
            heappop(hu)
            heap_ops += 1
        if not hu:
            best_token[u] = neg_inf
            continue
        head_neg = hu[0][0]
        if head_neg != neg_g:
            # stale token: u's best changed since the push; re-arm it
            if head_neg < 0.0:
                heappush(heap, (head_neg, u))
                heap_ops += 1
                best_token[u] = -head_neg
            else:
                best_token[u] = neg_inf
            continue
        v = hu[0][1]
        w = next_slot
        next_slot += 1

        row_u = rows[u]
        row_v = rows[v]
        del row_u[v], row_v[u]
        # link[x, w] = link[x, u] + link[x, v], u's contribution first
        # (matches the reference's pop order for weighted counts)
        row_w = dict(row_u)
        if row_v:
            get = row_w.get
            for x, count in row_v.items():
                row_w[x] = get(x, 0) + count
        rows[u] = rows[v] = None
        rows[w] = row_w
        local[u] = local[v] = None
        alive[u] = False
        alive[v] = False
        alive[w] = True
        size_w = size[u] + size[v]
        size[w] = size_w
        alive_count -= 1

        left.append(u)
        right.append(v)
        goodness_out.append(-neg_g)
        sizes_out.append(size_w)

        local_w: list[tuple[float, int]] = []
        for x, count in row_w.items():
            row_x = rows[x]
            row_x.pop(u, None)
            row_x.pop(v, None)
            row_x[w] = count
            g = scalar(count, size[x], size_w)
            neg = -g
            heappush(local[x], (neg, w))
            local_w.append((neg, x))
            if g > best_token[x] and g > 0.0:
                heappush(heap, (neg, x))
                best_token[x] = g
                heap_ops += 1
        heap_ops += 1 + len(local_w)
        if local_w:
            heapify(local_w)
            head_neg = local_w[0][0]
            if head_neg < 0.0:
                heappush(heap, (head_neg, w))
                best_token[w] = -head_neg
                heap_ops += 1
        local[w] = local_w

    return MergeStream(
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        goodness=np.asarray(goodness_out, dtype=np.float64),
        sizes=np.asarray(sizes_out, dtype=np.int64),
        heap_ops=heap_ops,
    )


def _replay_streams(
    problems: list[ComponentProblem],
    streams: list[MergeStream],
    k: int,
    m: int,
    registry: Any | None,
) -> tuple[MergeArrays, np.ndarray, bool]:
    """K-way replay of the per-component streams down to ``k`` of the
    ``m`` initial clusters: ``(merges, roots, stopped_early)``, with
    ``roots`` the final cluster id of every initial cluster.

    The replay heap holds one entry per non-exhausted stream, keyed
    ``(-head_goodness, head_u_global_id)`` -- exactly the reference's
    selection rule (see module docstring).  Merged global ids are
    handed out in replay order, so the merge columns are the
    reference's history, entry for entry.
    """
    pointers = [0] * len(streams)
    merged_gids: list[list[int]] = [[] for _ in streams]

    def to_global(comp: int, local: int) -> int:
        s = int(problems[comp].global_ids.shape[0])
        if local < s:
            return int(problems[comp].global_ids[local])
        return merged_gids[comp][local - s]

    heap: list[tuple[float, int, int]] = []
    for comp, stream in enumerate(streams):
        if len(stream):
            heap.append(
                (
                    -float(stream.goodness[0]),
                    to_global(comp, int(stream.left[0])),
                    comp,
                )
            )
    heapq.heapify(heap)
    heap_ops = len(heap)

    left: list[int] = []
    right: list[int] = []
    goodness: list[float] = []
    sizes: list[int] = []
    stopped_early = False
    alive_total = m
    next_id = m
    while alive_total > k:
        if not heap:
            # no positive-goodness merge remains anywhere (all streams
            # exhausted): the mushroom-style early stop
            stopped_early = True
            break
        _, u_gid, comp = heapq.heappop(heap)
        heap_ops += 1
        stream = streams[comp]
        t = pointers[comp]
        merged_gids[comp].append(next_id)
        next_id += 1
        left.append(u_gid)
        right.append(to_global(comp, int(stream.right[t])))
        goodness.append(float(stream.goodness[t]))
        sizes.append(int(stream.sizes[t]))
        pointers[comp] = t + 1
        alive_total -= 1
        if t + 1 < len(stream):
            heapq.heappush(
                heap,
                (
                    -float(stream.goodness[t + 1]),
                    to_global(comp, int(stream.left[t + 1])),
                    comp,
                ),
            )
            heap_ops += 1
    if registry is not None:
        registry.inc("fit.cluster.heap_ops", heap_ops)

    merges = MergeArrays(
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        goodness=np.asarray(goodness, dtype=np.float64),
        sizes=np.asarray(sizes, dtype=np.int64),
        first_merged=m,
    )
    return merges, _merge_roots(m, merges.left, merges.right), stopped_early


def _merge_roots(m: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The final cluster id of each of ``m`` initial clusters after the
    merges ``left[t] + right[t] -> m + t``, by pointer doubling."""
    parent = np.arange(m + left.shape[0], dtype=np.int64)
    merged = np.arange(m, m + left.shape[0], dtype=np.int64)
    parent[left] = merged
    parent[right] = merged
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent[:m]
        parent = grand
