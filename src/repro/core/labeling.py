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

:class:`LabelingIndex` holds the dense indicator-matrix view of the
labeling sets, the oracle :meth:`ClusterLabeler.assign` scores through.
Batch calls -- the fit's label scan, the serving engine, the stream
labeler -- all score through one
:class:`~repro.serve.index.AssignmentIndex`, and that index picks the
scoring tier.  Custom similarities admit no index: they score per point
in :meth:`ClusterLabeler.assign_with_scores`.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.encoding import (
    as_item_set,
    encode_items,
    encode_query,
    indicator,
    item_order,
)
from repro.core.goodness import default_f
from repro.core.similarity import JaccardSimilarity, SimilarityFunction
from repro.obs.registry import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.index import AssignmentIndex


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


def clusters_from_labels(labels: np.ndarray) -> list[list[int]]:
    """The inverse of :func:`labels_from_clusters`: the ascending
    member lists of clusters ``0 .. labels.max()``; ``-1`` points are
    left out."""
    members = np.flatnonzero(labels >= 0)
    owner = labels[members]
    grouped = members[np.argsort(owner, kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(owner)).tolist()
    return [grouped[a:b] for a, b in zip([0] + bounds[:-1], bounds)]


def compute_normalisers(
    labeling_sets: Sequence[Sequence[Any]], f_theta: float
) -> np.ndarray:
    """The per-cluster denominators ``(|L_i| + 1)^{f(theta)}``.

    An *empty* labeling set -- legal when a weeded cluster
    contributed no representatives -- normalises by ``(0+1)^f = 1``; its
    neighbor count is always 0, so its score is always 0 and it can
    never win an assignment (points without neighbors anywhere are
    outliers before scores are compared).
    """
    return np.array([(len(li) + 1.0) ** f_theta for li in labeling_sets])


class LabelingIndex:
    """Precomputed indicator-matrix view of the labeling sets (Jaccard path).

    All representatives are encoded once into a ``(total_reps, vocab)``
    0/1 matrix, so a batch of ``B`` incoming points costs one ``(B,
    vocab) @ (vocab, total_reps)`` product instead of ``B * sum |L_i|``
    set comparisons.  It backs the oracle :meth:`ClusterLabeler.assign`
    and the ``dense`` tier of :class:`~repro.serve.index.AssignmentIndex`.
    Only item-set-like points (transactions, sets, categorical records)
    can be indexed; the constructor raises ``TypeError`` otherwise, and
    callers fall back to the scalar similarity path.
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
        rows = list(map(as_item_set, chain.from_iterable(labeling_sets)))
        # the dataset's vocabulary order, so no code depends on the hash seed
        self.vocabulary: dict[Any, int] = {
            item: code
            for code, item in enumerate(item_order(chain.from_iterable(rows)))
        }
        indptr, codes, sizes = encode_items(rows, self.vocabulary)
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
        self._index: LabelingIndex | None = None
        if isinstance(self.similarity, JaccardSimilarity):
            try:
                self._index = LabelingIndex(self.labeling_sets, theta, self.f_theta)
            except TypeError:
                pass  # representatives are not item-set-like: the scalar path
        self._assignment_index: AssignmentIndex | None = None

    @property
    def index(self) -> LabelingIndex | None:
        """The vectorised index, when the similarity admits one."""
        return self._index

    @property
    def assignment_index(self) -> AssignmentIndex | None:
        """The :class:`~repro.serve.index.AssignmentIndex` every batch
        call scores through, built on first use and kept; ``None`` where
        :attr:`index` is (custom similarities)."""
        if self._assignment_index is None and self._index is not None:
            from repro.serve.index import AssignmentIndex

            self._assignment_index = AssignmentIndex(self._index)
        return self._assignment_index

    @property
    def assign_backend(self) -> str:
        """The tier a batch call runs: the index's, or ``fallback``."""
        index = self.assignment_index
        return "fallback" if index is None else index.tier

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

    def assign_with_scores(
        self, points: Iterable[Any], counter: Counter | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels plus each point's winning normalised score (0.0 for
        an outlier), exactly those of :meth:`assign` and :meth:`scores`.

        Scored through :attr:`assignment_index`, whose tier is chosen
        there; custom similarities admit no index and score per point
        here.  ``counter`` is incremented by the point/representative
        pairs scored (every pair on the scalar path).
        """
        index = self.assignment_index
        if index is not None:
            return index.assign_with_scores(points, counter=counter)
        points = list(points)
        labels = np.full(len(points), -1, dtype=np.int64)
        best = np.zeros(len(points), dtype=np.float64)
        for i, point in enumerate(points):
            counts = self.neighbor_counts(point)
            if counts.any():
                scores = counts / self._normalisers
                labels[i] = np.argmax(scores)
                best[i] = scores[labels[i]]
        if counter is not None:
            counter.inc(len(points) * sum(map(len, self.labeling_sets)))
        return labels, best

    def assign_all(self, points: Iterable[Any]) -> np.ndarray:
        """Label a stream of points (the sequential disk scan of §4.6).

        The labels of :meth:`assign_with_scores`; :attr:`candidates`
        counts the point/representative pairs scored.
        """
        scored = Counter()
        labels = self.assign_with_scores(points, counter=scored)[0]
        self.candidates += int(scored.value)
        return labels


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
