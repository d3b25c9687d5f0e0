"""The disk-labeling phase (Section 4.6, "Labeling Data on Disk").

After clustering a random sample, the remaining database is assigned to
the discovered clusters:

1. draw a fraction of points ``L_i`` from each cluster ``i``;
2. stream the original data set; each point ``p`` with ``N_i``
   neighbors in ``L_i`` is assigned to the cluster maximising the
   normalised count ``N_i / (|L_i| + 1)^{f(theta)}`` -- the denominator
   is the expected number of neighbors ``p`` would have in ``L_i`` were
   it a member of cluster ``i``.

A point with zero neighbors in every labeling set is an outlier and
receives the label ``-1``.

The scoring internals live in :class:`LabelingIndex` so that the batch
assignment engine (:mod:`repro.serve.engine`) and the per-point
:class:`ClusterLabeler` share one implementation of the vectorised
Jaccard path.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

from repro.core.encoding import encode_items, encode_query, indicator
from repro.core.goodness import default_f
from repro.core.similarity import JaccardSimilarity, SimilarityFunction
from repro.obs.registry import Counter


# Byte budget for the widest per-block temporary of LabelingIndex.assign
# (``rows x max(vocab, total_reps)`` float64): a few hundred rows on a
# basket-sized vocabulary, fewer on a large one.
ASSIGN_BLOCK_BYTES = 2 << 20


def labels_from_clusters(
    clusters: Sequence[Sequence[int]], n: int
) -> np.ndarray:
    """Per-point cluster index from a cluster list; ``-1`` = unassigned.

    ``labels[p] = c`` for every ``p`` in ``clusters[c]``, vectorised
    with one fancy-indexed assignment per cluster.  The shared
    implementation behind every ``labels()``/``labels`` accessor
    (``RockResult``, the pipeline, the baseline clusterers), replacing
    nine copy-pasted per-point loops.
    """
    labels = np.full(n, -1, dtype=np.int64)
    for c, members in enumerate(clusters):
        if len(members):
            labels[np.asarray(members, dtype=np.int64)] = c
    return labels


def compute_normalisers(
    labeling_sets: Sequence[Sequence[Any]], f_theta: float
) -> np.ndarray:
    """The per-cluster denominators ``(|L_i| + 1)^{f(theta)}``.

    An *empty* labeling set -- legal when a shard or a weeded cluster
    contributed no representatives -- normalises by ``(0+1)^f = 1``; its
    neighbor count is always 0, so its score is always 0 and it can
    never win an assignment (points without neighbors anywhere are
    outliers before scores are compared).
    """
    return np.array([(len(li) + 1.0) ** f_theta for li in labeling_sets])


class LabelingIndex:
    """Precomputed indicator-matrix view of the labeling sets (Jaccard path).

    Streaming Jaccard against every representative is the hot loop of
    the labeling scan; with all representatives encoded once into a
    ``(total_reps, vocab)`` 0/1 matrix, a batch of ``B`` incoming points
    costs one ``(B, vocab) @ (vocab, total_reps)`` product instead of
    ``B * sum |L_i|`` set comparisons.  Only item-set-like points
    (transactions, sets, categorical records) can be indexed; the
    constructor raises ``TypeError`` otherwise, and callers fall back to
    the scalar similarity path.
    """

    def __init__(
        self,
        labeling_sets: Sequence[Sequence[Any]],
        theta: float,
        f_theta: float,
    ) -> None:
        self.theta = theta
        self.f_theta = f_theta
        self.normalisers = compute_normalisers(labeling_sets, f_theta)
        # representatives coded in first-seen item order
        self.vocabulary: dict[Any, int] = {}
        indptr, codes, sizes = encode_items(
            chain.from_iterable(labeling_sets), self.vocabulary, grow=True
        )
        self.rep_matrix = indicator(
            indptr, codes, max(len(self.vocabulary), 1), np.float64
        )
        self.rep_sizes = sizes.astype(np.float64)
        bounds = np.cumsum([0] + [len(li) for li in labeling_sets]).tolist()
        self.slices = list(zip(bounds[:-1], bounds[1:]))

    @property
    def n_clusters(self) -> int:
        return len(self.slices)

    def neighbor_counts(self, points: Sequence[Any]) -> np.ndarray:
        """``(B, n_clusters)`` matrix of per-cluster neighbor counts ``N_i``.

        Items outside the representative vocabulary get no column but
        still enlarge the union, through the points' true sizes.
        """
        indptr, codes, sizes = encode_query(points, self.vocabulary)
        matrix = indicator(indptr, codes, self.rep_matrix.shape[1], np.float64)
        inter = matrix @ self.rep_matrix.T
        union = self.rep_sizes[None, :] + sizes[:, None] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(union > 0, inter / np.maximum(union, 1e-300), 0.0)
        is_neighbor = sim >= self.theta
        counts = np.zeros((len(points), self.n_clusters), dtype=np.int64)
        for c, (a, b) in enumerate(self.slices):
            if b > a:
                counts[:, c] = is_neighbor[:, a:b].sum(axis=1)
        return counts

    def scores(self, points: Sequence[Any]) -> np.ndarray:
        """Normalised assignment scores ``N_i / (|L_i| + 1)^f`` per point."""
        return self.neighbor_counts(points) / self.normalisers

    def default_block_size(self) -> int:
        """Rows per block keeping the widest block temporary -- ``rows x
        max(vocab, total_reps)`` float64 -- within :data:`ASSIGN_BLOCK_BYTES`."""
        width = max(self.rep_matrix.shape[0], self.rep_matrix.shape[1])
        return max(1, ASSIGN_BLOCK_BYTES // (8 * width))

    def assign(
        self, points: Iterable[Any], block_size: int | None = None
    ) -> np.ndarray:
        """Batch-assign; -1 for points with no neighbors in any ``L_i``.

        Work proceeds in blocks of ``block_size`` rows (default:
        :meth:`default_block_size`), so a disk-scale batch never
        materialises more than one block's ``(rows, vocab)`` encoding
        and ``(rows, total_reps)`` scores.  Every row is scored
        independently with exact integer counts, so the labels do not
        depend on the block size.  A
        :class:`~repro.data.transactions.TransactionDataset` stays one:
        its blocks are slices whose codes are remapped, not walked.
        """
        if not isinstance(points, Sequence):
            points = list(points)
        if block_size is None:
            block_size = self.default_block_size()
        elif block_size < 1:
            raise ValueError("block_size must be positive")
        labels = np.empty(len(points), dtype=np.int64)
        for start in range(0, len(points), block_size):
            block = points[start : start + block_size]
            counts = self.neighbor_counts(block)
            block_labels = np.argmax(counts / self.normalisers, axis=1)
            block_labels[~counts.any(axis=1)] = -1
            labels[start : start + block_size] = block_labels
        return labels


class ClusterLabeler:
    """Assigns points to clusters via normalised neighbor counts in L_i sets.

    Parameters
    ----------
    labeling_sets:
        One list of representative points per cluster (the ``L_i``).
        Individual sets may be empty (their cluster simply never wins an
        assignment); at least one set must be non-empty.
    theta:
        The neighbor threshold used during clustering.
    similarity:
        The similarity function used during clustering (default Jaccard).
    f:
        The ``f(theta)`` estimate; the default is the market-basket
        heuristic of Section 3.3.
    """

    def __init__(
        self,
        labeling_sets: Sequence[Sequence[Any]],
        theta: float,
        similarity: SimilarityFunction | None = None,
        f: Callable[[float], float] = default_f,
    ) -> None:
        if not labeling_sets:
            raise ValueError("need at least one cluster labeling set")
        if all(len(li) == 0 for li in labeling_sets):
            raise ValueError("at least one labeling set must be non-empty")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        self.labeling_sets = [list(li) for li in labeling_sets]
        self.theta = theta
        self.similarity = similarity if similarity is not None else JaccardSimilarity()
        self.f_theta = f(theta)
        self._normalisers = compute_normalisers(self.labeling_sets, self.f_theta)
        # point/representative pairs scored by assign_all so far
        self.candidates = 0
        self._index = (
            self._build_index()
            if isinstance(self.similarity, JaccardSimilarity)
            else None
        )

    def _build_index(self) -> LabelingIndex | None:
        try:
            return LabelingIndex(self.labeling_sets, self.theta, self.f_theta)
        except TypeError:
            # representatives are not item-set-like: use the scalar path
            return None

    @property
    def index(self) -> LabelingIndex | None:
        """The vectorised index, when the similarity admits one."""
        return self._index

    def neighbor_counts(self, point: Any) -> np.ndarray:
        """``N_i``: how many members of each ``L_i`` are neighbors of ``point``."""
        if self._index is not None:
            return self._index.neighbor_counts([point])[0]
        counts = np.zeros(len(self.labeling_sets), dtype=np.int64)
        for i, li in enumerate(self.labeling_sets):
            counts[i] = sum(
                1 for rep in li if self.similarity(point, rep) >= self.theta
            )
        return counts

    def scores(self, point: Any) -> np.ndarray:
        """The normalised per-cluster assignment scores for one point."""
        return self.neighbor_counts(point) / self._normalisers

    def assign(self, point: Any) -> int:
        """Cluster index for a point, or -1 when it has no neighbors anywhere."""
        counts = self.neighbor_counts(point)
        if not counts.any():
            return -1
        return int(np.argmax(counts / self._normalisers))

    def assign_all(self, points: Iterable[Any]) -> np.ndarray:
        """Label a stream of points (the sequential disk scan of §4.6).

        With an index and ``theta > 0`` the scan runs on the native
        ``assign_block`` kernel over an
        :class:`~repro.serve.index.AssignmentIndex` when the
        :mod:`repro.native` C tier probed clean; otherwise as
        :meth:`LabelingIndex.assign` row blocks.  Other similarities
        call :meth:`assign` per point.  All give exactly the labels of
        :meth:`assign` (property-tested).  :attr:`candidates` counts the
        point/representative pairs scored: the native kernel's verified
        candidates, every pair on the other routes.
        """
        if not isinstance(points, Sequence):
            points = list(points)
        if self._index is not None and self.theta > 0.0:
            from repro.native import get_kernels

            kernels = get_kernels()
            if kernels is not None:
                from repro.serve.index import AssignmentIndex

                verified = Counter()
                labels = AssignmentIndex(self._index).assign(
                    points, kernels=kernels, counter=verified
                )
                self.candidates += int(verified.value)
                return labels
        n_reps = sum(len(li) for li in self.labeling_sets)
        self.candidates += len(points) * n_reps
        if self._index is None:
            return np.array([self.assign(p) for p in points], dtype=np.int64)
        return self._index.assign(points)


def draw_labeling_sets(
    clusters: Sequence[Sequence[int]],
    points: Sequence[Any],
    fraction: float = 0.25,
    min_points: int = 1,
    rng: random.Random | int | None = None,
) -> list[list[Any]]:
    """Draw the per-cluster labeling fraction ``L_i`` from clustered sample points.

    Parameters
    ----------
    clusters:
        Clusters as lists of indices into ``points``.
    points:
        The sampled points that were clustered.
    fraction:
        Fraction of each cluster to use for labeling, in (0, 1].
    min_points:
        Lower bound on ``|L_i|`` so tiny clusters still label.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    if isinstance(rng, random.Random):
        generator = rng
    else:
        generator = random.Random(rng)
    labeling_sets: list[list[Any]] = []
    for cluster in clusters:
        if not cluster:
            raise ValueError("clusters must be non-empty")
        size = max(min_points, int(round(fraction * len(cluster))))
        size = min(size, len(cluster))
        chosen = generator.sample(list(cluster), size)
        labeling_sets.append([points[i] for i in sorted(chosen)])
    return labeling_sets
