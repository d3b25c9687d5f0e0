"""§4.6 batch assignment: one index, and the one place its tier is chosen.

:class:`~repro.core.labeling.LabelingIndex` scores a batch against
*every* representative with one dense ``(B, vocab) @ (vocab, total)``
matmul, yet at ``theta > 0`` a point can only be a neighbor of
representatives it shares an item with.  :class:`AssignmentIndex`
keeps that dense index and builds, once per model and with vectorised
numpy only:

* a **rank order** of the vocabulary: columns renumbered by ascending
  representative-side document frequency (how many representatives
  hold the item), ties broken by the old column id, so sorting a row
  by column id sorts it rarest first;
* a **rep -> items CSR** (``rep_indptr`` / ``rep_items``), each row in
  rank order, plus exact set sizes and cluster ids;
* an **item -> representatives inverted index** (the CSC view of the
  representative indicator matrix, ``inv_indptr`` / ``inv_reps``);
* **prefix postings** (``pre_indptr`` / ``pre_reps``): item -> the
  representatives whose first ``|r| - o_min(|r|) + 1`` items hold it;
* the per-cluster ``(|L_i| + 1)^f`` normalisers.

The prefix lemma (AllPairs, Bayardo et al. 2007; PPJoin, Xiao et al.
2008): order every set by one global item order; if ``|q & r| >= o_q``
and ``|q & r| >= o_r``, the first ``|q| - o_q + 1`` items of ``q`` and
the first ``|r| - o_r + 1`` items of ``r`` share an item.  Here
``o_min(s)`` (:func:`min_overlap`) is the smallest ``o`` passing the
float64 test ``o / s >= theta`` -- the very test that decides a
neighbor.  It is exact, not a rounded bound: correctly rounded division
is monotone in numerator and denominator, and ``union >= max(|q|,
|r|)``, so a pair passing ``inter / union >= theta`` also passes
``inter / |q| >= theta`` and ``inter / |r| >= theta``, hence ``inter >=
o_min`` on both sides.  Prefixes therefore never lose a neighbor, and
verifying each candidate with its full intersection keeps the labels
exact.  Out-of-vocabulary query items rank before every indexed item:
no representative holds them (their document frequency is 0) and
nothing indexes them, so they fill the front of a query's prefix.  The
in-vocabulary part is the prefix length minus the out-of-vocabulary
count, and a point whose prefix they fill completely is an outlier
with no probe at all.

:attr:`AssignmentIndex.tier` picks the scoring tier on every call:

``native``
    where the C tier probes clean (:func:`resolve_assign_backend`) and
    ``theta > 0``: the ``assign_block`` kernel of :mod:`repro.native`
    sorts each query row by rank, walks only its prefix items' prefix
    postings, verifies each distinct candidate by counting its items
    in the query, then runs the threshold test and best-cluster argmax.
``dense``
    otherwise, when the index's posting share ``sum_items df^2 /
    (n_reps * sum_items df)`` (``df``: the representatives holding an
    item; the share of the representatives a query item's postings
    hold) reaches :data:`DENSE_POSTING_SHARE`: the ``LabelingIndex``
    matmul, in row blocks bounded by :data:`ASSIGN_BLOCK_BYTES`.
``pruned``
    otherwise: the query block as a sparse CSR, its candidates gathered
    by a scipy sparse product over the full inverted index (numpy
    posting lists without scipy), and only candidates scored.

The tiers agree bit for bit (property-tested against
``ClusterLabeler.assign``): intersections are small integers, exact in
float64, and a candidate pair has ``inter >= 1`` and hence ``union >=
1``, so the dense path's guarded ``inter / max(union, 1e-300)`` is the
plain ``inter / union`` every tier computes; non-candidates fail the
test in the dense path too.  ``theta == 0`` makes *every*
representative a neighbor (``sim >= 0`` always holds), so it is
answered with constant per-cluster counts.  Argmax ties break toward
the lowest cluster index (``np.argmax``), and a cluster without
neighbors scores exactly ``0.0``, which lets the native kernel scan
only the touched clusters.  ``counter`` arguments receive the pairs
scored: verified candidates, item-sharing pairs, or every pair.

The index is pure data, so it pickles.  Every call fetches the probed
kernel namespace, so an unpickled copy in a process whose probe fails
still picks a correct tier.  The native tier binds ``assign_block`` to
the index's arrays once per namespace (``kernels.bind_assign``:
addresses taken once, scratch reused per thread); the binding is
process-local and never pickled.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.encoding import encode_query
from repro.core.labeling import LabelingIndex
from repro.core.neighbors import _scipy_sparse_available
from repro.obs.registry import Counter
from repro.parallel.pool import map_blocks


# Rows of the dense tier's widest block temporary, ``rows x max(vocab,
# total_reps)`` float64, fit this byte budget: a few hundred rows on a
# basket-sized vocabulary, fewer on a large one.
ASSIGN_BLOCK_BYTES = 2 << 20

# Without the C tier, an index at or above this posting share scores on
# the dense tier, below it on the pruned tier: the geometric mean of the
# crossovers in bench_serve_throughput.py::test_assign_tiers.
DENSE_POSTING_SHARE = 0.093


def resolve_assign_backend(requested: str = "auto") -> tuple[str, Any | None]:
    """The probe half of the tier choice, as ``(tier, kernels)``.

    ``("native", kernels)`` when :func:`repro.native.get_kernels`
    returns the probed namespace (the probe smoke-tests
    ``assign_block``), else ``("numpy", None)``: one of the numpy
    tiers, which :meth:`AssignmentIndex.tier` picks from the index.
    ``"auto"`` is the only accepted request: no caller forces a tier.
    """
    if requested != "auto":
        raise ValueError(
            f"unknown assign backend {requested!r}; the tier follows the "
            "repro.native probe, so only 'auto' is accepted"
        )
    from repro.native import get_kernels

    kernels = get_kernels()
    if kernels is not None:
        return "native", kernels
    return "numpy", None


def min_overlap(sizes: Any, theta: float) -> np.ndarray:
    """Smallest intersection that can reach ``theta``, per set size.

    ``o_min(s)`` is the smallest ``o`` with the float64 test ``o / s >=
    theta`` -- the very division the neighbor test makes -- or ``s + 1``
    when no ``o <= s`` passes; an empty set divides by 1 and gets ``1``.
    It starts at ``ceil(theta * s)`` and steps by +-1 until ``o`` passes
    and ``o - 1`` fails, which pins the exact boundary because correctly
    rounded division is monotone in ``o``.  The native kernel computes
    the query side with the same steps (``kernels.c``).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    denom = np.maximum(sizes, 1).astype(np.float64)
    o = np.clip(np.ceil(theta * sizes), 0, sizes + 1).astype(np.int64)
    while True:
        up = (o <= sizes) & (o / denom < theta)
        if not up.any():
            break
        o[up] += 1
    while True:
        down = (o > 0) & ((o - 1) / denom >= theta)
        if not down.any():
            break
        o[down] -= 1
    return o


class AssignmentIndex:
    """Rank-ordered inverted and prefix indexes over a :class:`LabelingIndex`.

    Parameters
    ----------
    index:
        The dense labeling index to mirror.  All derived arrays are
        built once here; the source index is kept as the dense tier.
    """

    def __init__(self, index: LabelingIndex) -> None:
        self.dense = index
        self.theta = float(index.theta)
        self.normalisers = np.ascontiguousarray(index.normalisers, dtype=np.float64)
        n_reps, vocab = index.rep_matrix.shape
        self.n_reps = n_reps
        self.vocab_size = vocab
        # every step below is a bincount or one sort of packed int64
        # codes (a plain sort beats a stable argsort severalfold)
        stride = max(n_reps, 1)
        reps_of, cols_of = np.divmod(np.flatnonzero(index.rep_matrix != 0), vocab)
        # renumber the columns by ascending representative document
        # frequency, ties by the old id: rank order is id order
        columns = np.arange(vocab)
        by_rank = np.sort(np.bincount(cols_of, minlength=vocab) * vocab + columns)
        rank = np.empty(vocab, dtype=np.int64)
        rank[by_rank % vocab] = columns
        old_columns = np.fromiter(
            index.vocabulary.values(), dtype=np.int64, count=len(index.vocabulary)
        )
        self.vocabulary = dict(zip(index.vocabulary, rank[old_columns].tolist()))
        # rep -> items CSR, each row rarest first
        entry_rep, items = np.divmod(np.sort(reps_of * vocab + rank[cols_of]), vocab)
        self.rep_items = items.astype(np.int32)
        rep_sizes = np.bincount(reps_of, minlength=n_reps)
        self.rep_indptr = np.zeros(n_reps + 1, dtype=np.int64)
        np.cumsum(rep_sizes, out=self.rep_indptr[1:])
        self.rep_sizes = rep_sizes.astype(np.int32)
        # item -> ascending representatives: the CSC of the indicator
        # matrix, which the pruned tier's product consumes
        self.inv_indptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(items, minlength=vocab), out=self.inv_indptr[1:])
        self.inv_reps = (np.sort(items * stride + entry_rep) % stride).astype(np.int32)
        # sum df^2 / (n_reps * sum df): the statistic the numpy tiers split on
        df = np.diff(self.inv_indptr)
        self.posting_share = float(df @ df) / (stride * max(int(df.sum()), 1))
        # item -> the representatives whose first |r| - o_min(|r|) + 1
        # items hold it: the native tier's candidate gather
        prefix = np.clip(
            rep_sizes - min_overlap(rep_sizes, self.theta) + 1, 0, rep_sizes
        )
        position = np.arange(items.size) - np.repeat(self.rep_indptr[:-1], rep_sizes)
        in_prefix = position < np.repeat(prefix, rep_sizes)
        prefix_items = items[in_prefix]
        self.pre_indptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(prefix_items, minlength=vocab), out=self.pre_indptr[1:]
        )
        self.pre_reps = (
            np.sort(prefix_items * stride + entry_rep[in_prefix]) % stride
        ).astype(np.int32)
        rep_cluster = np.empty(n_reps, dtype=np.int32)
        for c, (a, b) in enumerate(index.slices):
            rep_cluster[a:b] = c
        self.rep_cluster = rep_cluster
        self.n_clusters = index.n_clusters
        # |L_c| per cluster: the constant neighbor counts of theta == 0
        self.cluster_rep_counts = np.array(
            [b - a for a, b in index.slices], dtype=np.int64
        )
        self._rep_t = None  # lazily built scipy CSR of the transpose
        # (kernels, their assign_block bound to this index's arrays)
        self._bound: tuple[Any, Any] | None = None

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        # rebuilt lazily after unpickling: the scipy matrix, and the
        # bound kernel call, whose addresses and thread-local scratch
        # belong to this process
        state["_rep_t"] = None
        state["_bound"] = None
        return state

    # -- candidate scoring ---------------------------------------------------

    def _candidates(
        self, q_indptr: np.ndarray, q_items: np.ndarray, n_points: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, reps, inter)`` for every point/representative pair
        sharing at least one item.  Intersection counts are exact
        integers; pairs not returned have ``inter == 0``.
        """
        if q_items.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if _scipy_sparse_available():
            from scipy import sparse

            if self._rep_t is None:
                # CSR of the (vocab, n_reps) transpose: the inverted
                # index arrays *are* its indptr/indices
                self._rep_t = sparse.csr_matrix(
                    (
                        np.ones(self.inv_reps.size, dtype=np.int64),
                        self.inv_reps,
                        self.inv_indptr,
                    ),
                    shape=(self.vocab_size, self.n_reps),
                )
            q = sparse.csr_matrix(
                (np.ones(q_items.size, dtype=np.int64), q_items, q_indptr),
                shape=(n_points, self.vocab_size),
            )
            inter_mat = (q @ self._rep_t).tocsr()
            # searchsorted row recovery, as in SparseTransactionScorer:
            # side="right" walks correctly across empty rows
            pos = np.arange(inter_mat.data.size)
            rows = np.searchsorted(inter_mat.indptr, pos, side="right") - 1
            cols = inter_mat.indices.astype(np.int64, copy=False)
            inter = inter_mat.data.astype(np.int64, copy=False)
            return rows.astype(np.int64, copy=False), cols, inter
        # numpy fallback: gather each query item's posting list with the
        # concatenated-aranges trick, then multiplicity-count the
        # (point, rep) codes -- the multiplicity IS the intersection
        starts = self.inv_indptr[q_items]
        lens = self.inv_indptr[q_items + np.int32(1)] - starts
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        point_of_item = np.repeat(
            np.arange(n_points, dtype=np.int64), np.diff(q_indptr)
        )
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        gather = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        gather += np.repeat(starts, lens)
        reps = self.inv_reps[gather].astype(np.int64, copy=False)
        rows = np.repeat(point_of_item, lens)
        codes, inter = np.unique(rows * self.n_reps + reps, return_counts=True)
        return codes // self.n_reps, codes % self.n_reps, inter.astype(np.int64)

    def _pruned_counts(
        self, q_indptr: np.ndarray, q_items: np.ndarray, q_sizes: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Neighbor counts plus the number of candidate pairs scored."""
        n_points = q_sizes.size
        if self.theta <= 0.0:
            # sim >= 0 always holds, so every representative is a
            # neighbor of every point -- constant per-cluster counts
            counts = np.broadcast_to(
                self.cluster_rep_counts, (n_points, self.n_clusters)
            )
            return counts, 0
        rows, reps, inter = self._candidates(q_indptr, q_items, n_points)
        counts = np.zeros((n_points, self.n_clusters), dtype=np.int64)
        if rows.size == 0:
            return counts, 0
        # candidates have inter >= 1 hence union >= 1: the dense path's
        # guarded division reduces to this exact float64 quotient
        union = self.rep_sizes[reps] + q_sizes[rows] - inter
        sim = inter.astype(np.float64) / union.astype(np.float64)
        neighbor = sim >= self.theta
        flat = rows[neighbor] * self.n_clusters + self.rep_cluster[reps[neighbor]]
        counts.ravel()[:] = np.bincount(
            flat, minlength=n_points * self.n_clusters
        )
        return counts, int(rows.size)

    # -- assignment ----------------------------------------------------------

    @property
    def tier(self) -> str:
        """The tier the next call runs: ``native``, ``dense`` or ``pruned``."""
        return self._resolve_tier()[0]

    def _resolve_tier(self) -> tuple[str, Any | None]:
        """The one §4.6 tier decision, as ``(tier, kernels)``.

        ``native`` when the :mod:`repro.native` probe passes and
        ``theta > 0``; otherwise ``dense`` for an index whose
        :attr:`posting_share` reaches :data:`DENSE_POSTING_SHARE`, else
        ``pruned``.  The kernels are fetched here, on every call.
        """
        _, kernels = resolve_assign_backend()
        if kernels is not None and self.theta > 0.0:
            return "native", kernels
        if self.posting_share >= DENSE_POSTING_SHARE:
            return "dense", None
        return "pruned", None

    def assign(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        counter: Counter | None = None,
    ) -> np.ndarray:
        """Batch-assign; ``-1`` for points with no neighbors anywhere.

        ``counter``, when given, is incremented by the number of
        candidate point/representative pairs scored.
        """
        return self.assign_with_scores(
            points, block_size=block_size, counter=counter
        )[0]

    def assign_with_scores(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        counter: Counter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels plus each point's winning normalised score.

        Outliers score ``0.0``.  The score array equals
        ``(counts / normalisers)[arange, labels]`` of the dense path --
        the :class:`~repro.stream.runner.StreamClusterer` confidence
        values -- bit for bit, on every tier.  The dense tier scores at
        most the rows :data:`ASSIGN_BLOCK_BYTES` allows per block.
        """
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if not isinstance(points, Sequence):
            points = list(points)
        tier, kernels = self._resolve_tier()
        if tier == "native":
            return self._assign_native(points, block_size, kernels, counter)
        if tier == "dense":
            width = max(self.n_reps, self.vocab_size)
            block_size = min(block_size, max(1, ASSIGN_BLOCK_BYTES // (8 * width)))
        n = len(points)
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        candidates = 0
        for start in range(0, n, block_size):
            # a dataset's slice stays a dataset, so its block is remapped
            block = points[start : start + block_size]
            stop = start + len(block)
            if tier == "dense" and self.theta > 0.0:
                counts = self.dense.neighbor_counts(block)
                scored = len(block) * self.n_reps
            else:
                # the pruned gather, and the constant counts of theta == 0
                counts, scored = self._pruned_counts(
                    *encode_query(block, self.vocabulary)
                )
            candidates += scored
            scores = counts / self.normalisers
            block_labels = np.argmax(scores, axis=1)
            block_best = scores[np.arange(len(block)), block_labels]
            outliers = ~counts.any(axis=1)
            block_labels[outliers] = -1
            block_best[outliers] = 0.0
            labels[start:stop] = block_labels
            best[start:stop] = block_best
        if counter is not None:
            counter.inc(candidates)
        return labels, best

    def _assign_native(
        self,
        points: Sequence[Any],
        block_size: int,
        kernels: Any,
        counter: Counter | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The native tier: ``assign_block`` over row blocks, on
        :func:`~repro.parallel.pool.map_blocks` threads (the ctypes call
        releases the GIL), stitched in block order."""
        bound = self._bound
        if bound is None or bound[0] is not kernels:
            # bound once per kernel namespace; each thread gets its own
            # scratch from the bound call
            bound = self._bound = (kernels, kernels.bind_assign(
                self.pre_indptr, self.pre_reps, self.rep_indptr,
                self.rep_items, self.rep_cluster, self.normalisers, self.theta,
            ))
        call = bound[1]

        def assign(start: int) -> tuple[np.ndarray, np.ndarray, int]:
            # a dataset's slice stays a dataset, so its block is remapped;
            # the encoding is fresh, so the kernel may sort its rows
            return call(*encode_query(points[start : start + block_size], self.vocabulary))

        blocks = map_blocks(assign, range(0, len(points), block_size))
        if counter is not None:
            counter.inc(sum(verified for _, _, verified in blocks))
        if not blocks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if len(blocks) == 1:
            return blocks[0][0], blocks[0][1]
        return (
            np.concatenate([labels for labels, _, _ in blocks]),
            np.concatenate([best for _, best, _ in blocks]),
        )
