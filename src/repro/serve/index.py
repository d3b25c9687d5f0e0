"""The inverted-index fast path for §4.6 batch assignment.

:class:`~repro.core.labeling.LabelingIndex` scores a batch against
*every* representative with one dense ``(B, vocab) @ (vocab, total)``
matmul.  That is wasteful in exactly the way serving traffic is shaped:
at ``theta > 0`` a point can only be a neighbor of representatives it
shares at least one item with, and real categorical points touch a
handful of the vocabulary.  :class:`AssignmentIndex` therefore builds,
once per model load and with vectorised numpy only:

* a **rank order** of the vocabulary: columns renumbered by ascending
  representative-side document frequency (how many representatives
  hold the item), ties broken by the old column id, so sorting a row
  by column id sorts it rarest first.  The vocabulary dict maps items
  straight to ranks, so every tier shares one encoding;
* a **rep -> items CSR** (``rep_indptr`` / ``rep_items``), each row in
  rank order, plus exact set sizes and cluster ids;
* an **item -> representatives inverted index** (the CSC view of the
  representative indicator matrix, ``inv_indptr`` / ``inv_reps``);
* **prefix postings** (``pre_indptr`` / ``pre_reps``): item -> the
  representatives whose first ``|r| - o_min(|r|) + 1`` items hold it;
* the per-cluster ``(|L_i| + 1)^f`` normalisers.

``assign`` then encodes each query block as a sparse CSR (column
indices only -- the dense ``(B, vocab)`` 0/1 matrix never exists),
gathers candidate representatives and scores **only candidates**: the
same integer intersections and the same float64 division as the dense
path, so labels are bit-for-bit identical to ``ClusterLabeler.assign``
(property-tested).  Points without a candidate short-circuit straight
to the outlier label ``-1`` without touching any arithmetic.

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

Two scoring tiers share this index, and the :mod:`repro.native` probe
picks between them (:func:`resolve_assign_backend`):

``pruned``
    Candidate gather via a scipy sparse product over the full inverted
    index (the :class:`~repro.core.neighbors.SparseTransactionScorer`
    machinery: CSR x CSR intersection counts, ``searchsorted`` row
    recovery), or a pure-numpy posting-list gather when scipy is
    unavailable.  Every representative sharing an item is a candidate.
    The tier wherever the C tier does not probe clean or
    ``REPRO_NATIVE`` is off.
``native``
    The ``assign_block`` C kernel of :mod:`repro.native`: per point it
    sorts the row by rank, walks only the prefix items' prefix
    postings, verifies each distinct candidate by counting its items
    in the query, then runs the threshold test and best-cluster argmax;
    pass the probed kernel namespace into :meth:`assign`.  The default
    wherever the C tier probes clean, and the route of the pipeline's
    §4.6 labeling scan
    (:meth:`~repro.core.labeling.ClusterLabeler.assign_all`).

The dense ``LabelingIndex.assign`` matmul is not a tier of this module:
it backs the oracle ``ClusterLabeler.assign`` and the labeling scan's
no-compiler route.

Why the tiers agree bit for bit: intersections are small integers
(exact in float64), a candidate pair has ``inter >= 1`` and hence
``union >= 1``, so the dense path's guarded ``inter / max(union,
1e-300)`` reduces to the plain ``inter / union`` every tier computes;
non-candidates fail the test in the dense path too.  ``theta == 0``
makes *every* representative a neighbor of every point (``sim >= 0``
always holds, matching the dense ``np.where``), so that degenerate
case is answered with constant per-cluster counts instead of candidate
pruning.  Ties in the final argmax break toward the lowest cluster
index in every tier (``np.argmax`` semantics); a cluster without
neighbors scores exactly ``0.0`` while any neighbor count >= 1 scores
``> 0``, which is what lets the native kernel scan only the touched
clusters.

The ``counter`` argument of :meth:`AssignmentIndex.assign` takes a
:class:`repro.obs.registry.Counter` and adds the number of candidate
pairs scored: the native kernel's verified candidates, the pruned
tier's item-sharing pairs (none at ``theta == 0``).

The index is a pure-data object (numpy arrays + the vocabulary dict):
it pickles cleanly, so :func:`repro.serve.parallel.assign_stream`
ships one prebuilt copy to every worker through the pool initializer
instead of rebuilding it per process.  Kernel namespaces hold ctypes
handles and are deliberately *not* stored on the index -- they are
resolved per process and passed into ``assign``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.encoding import encode_query
from repro.core.labeling import LabelingIndex
from repro.core.neighbors import _scipy_sparse_available
from repro.obs.registry import Counter


def resolve_assign_backend(requested: str = "auto") -> tuple[str, Any | None]:
    """The index tier the probe picks, as ``(tier, kernels)``.

    ``("native", kernels)`` when :func:`repro.native.get_kernels`
    returns the probed namespace (the probe smoke-tests
    ``assign_block``), else ``("pruned", None)``.  ``"auto"`` is the
    only accepted request: no caller forces a tier.
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
    return "pruned", None


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
        built once here; the source index is not retained.
    """

    def __init__(self, index: LabelingIndex) -> None:
        self.theta = float(index.theta)
        self.f_theta = float(index.f_theta)
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

    # -- pickling (pool payloads) -------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_rep_t"] = None  # rebuilt lazily in the worker
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

    def neighbor_counts(self, points: Sequence[Any]) -> np.ndarray:
        """``(B, n_clusters)`` neighbor counts, equal to the dense path's."""
        return self._block_counts(*encode_query(points, self.vocabulary))[0]

    def _block_counts(
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

    def assign(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        kernels: Any | None = None,
        counter: Counter | None = None,
    ) -> np.ndarray:
        """Batch-assign; ``-1`` for points with no neighbors anywhere.

        ``kernels`` is a probed :mod:`repro.native` namespace; when it
        is given (and ``theta > 0``) the fused native kernel runs,
        otherwise the numpy/scipy pruned path.  ``counter``, when
        given, is incremented by the number of candidate
        point/representative pairs scored.
        """
        return self.assign_with_scores(
            points, block_size=block_size, kernels=kernels, counter=counter
        )[0]

    def assign_with_scores(
        self,
        points: Sequence[Any],
        block_size: int = 8192,
        kernels: Any | None = None,
        counter: Counter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels plus each point's winning normalised score.

        Outliers score ``0.0``.  The score array equals
        ``(counts / normalisers)[arange, labels]`` of the dense path --
        the :class:`~repro.stream.runner.StreamClusterer` confidence
        values -- bit for bit.
        """
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if not isinstance(points, Sequence):
            points = list(points)
        n = len(points)
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        use_kernel = kernels is not None and self.theta > 0.0
        candidates = 0
        for start in range(0, n, block_size):
            # a dataset's slice stays a dataset, so its block is remapped
            block = points[start : start + block_size]
            q_indptr, q_items, q_sizes = encode_query(block, self.vocabulary)
            stop = start + len(block)
            if use_kernel:
                labels[start:stop], best[start:stop], verified = kernels.assign_block(
                    q_indptr,
                    q_items,
                    q_sizes,
                    self.pre_indptr,
                    self.pre_reps,
                    self.rep_indptr,
                    self.rep_items,
                    self.rep_cluster,
                    self.normalisers,
                    self.theta,
                )
                candidates += verified
                continue
            counts, scored = self._block_counts(q_indptr, q_items, q_sizes)
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
