"""Tests for the ROCK clustering loop (Section 4.3, Figure 3)."""

from dataclasses import FrozenInstanceError
from itertools import combinations

import numpy as np
import pytest

from repro.core.goodness import default_f, naive_goodness
from repro.core.links import LinkTable, compute_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.rock import MergeStep, cluster_with_links, rock
from repro.data.transactions import Transaction, TransactionDataset
from tests.linktables import link_table


def links_from_pairs(n, pairs):
    return link_table(n, pairs)


class TestMergeStepFromArrays:
    def test_equals_constructed_steps(self):
        steps = MergeStep.from_arrays(
            np.array([0, 2]), np.array([1, 5]), 7,
            np.array([0.5, 1.25]), np.array([2, 3]),
        )
        built = [MergeStep(0, 1, 7, 0.5, 2), MergeStep(2, 5, 8, 1.25, 3)]
        assert steps == built
        assert list(map(hash, steps)) == list(map(hash, built))
        assert list(map(repr, steps)) == list(map(repr, built))
        assert [type(v) for v in vars(steps[0]).values()] == [int, int, int, float, int]
        with pytest.raises(FrozenInstanceError):
            steps[0].left = 3
        assert MergeStep.from_arrays(*[np.empty(0)] * 2, 0, *[np.empty(0)] * 2) == []


class TestClusterWithLinks:
    def test_two_obvious_clusters(self):
        links = links_from_pairs(
            4, [(0, 1, 5), (2, 3, 5), (1, 2, 1)]
        )
        result = cluster_with_links(links, k=2, f_theta=1 / 3)
        assert sorted(map(sorted, result.clusters)) == [[0, 1], [2, 3]]
        assert not result.stopped_early

    def test_stops_when_no_links_remain(self):
        links = links_from_pairs(4, [(0, 1, 3)])
        result = cluster_with_links(links, k=1, f_theta=1 / 3)
        # only 0-1 can merge; 2 and 3 have no links anywhere
        assert result.stopped_early
        assert len(result.clusters) == 3

    def test_k_hint_respected_when_links_suffice(self):
        links = links_from_pairs(
            4, [(0, 1, 4), (1, 2, 3), (2, 3, 4), (0, 3, 1)]
        )
        result = cluster_with_links(links, k=2, f_theta=1 / 3)
        assert len(result.clusters) == 2

    def test_merge_history_recorded(self):
        links = links_from_pairs(3, [(0, 1, 2), (1, 2, 1)])
        result = cluster_with_links(links, k=1, f_theta=1 / 3)
        assert len(result.merges) == 2
        assert result.merges[0].size == 2
        assert result.merges[1].size == 3
        assert result.merges[0].goodness >= 0

    def test_labels_cover_all_points(self):
        links = links_from_pairs(5, [(0, 1, 2), (2, 3, 2), (3, 4, 2)])
        result = cluster_with_links(links, k=2, f_theta=1 / 3)
        labels = result.labels()
        assert len(labels) == 5
        assert (labels >= 0).all()

    def test_clusters_sorted_by_size(self):
        links = links_from_pairs(5, [(0, 1, 9), (1, 2, 9), (3, 4, 1)])
        result = cluster_with_links(links, k=2, f_theta=1 / 3)
        assert len(result.clusters[0]) >= len(result.clusters[1])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            cluster_with_links(LinkTable(2), k=0, f_theta=0.5)

    def test_singleton_input(self):
        result = cluster_with_links(LinkTable(1), k=1, f_theta=0.5)
        assert result.clusters == [[0]]

    def test_k_larger_than_n(self):
        result = cluster_with_links(LinkTable(2), k=5, f_theta=0.5)
        assert len(result.clusters) == 2

    def test_deterministic(self):
        links = links_from_pairs(
            6, [(0, 1, 3), (1, 2, 3), (3, 4, 3), (4, 5, 3), (2, 3, 1)]
        )
        a = cluster_with_links(links, k=2, f_theta=1 / 3)
        b = cluster_with_links(links, k=2, f_theta=1 / 3)
        assert a.clusters == b.clusters
        assert [(m.left, m.right) for m in a.merges] == [
            (m.left, m.right) for m in b.merges
        ]


class TestInitialClusters:
    def test_resume_from_partition(self):
        links = links_from_pairs(
            6, [(0, 1, 4), (2, 3, 4), (4, 5, 4), (1, 2, 2), (3, 4, 2)]
        )
        result = cluster_with_links(
            links, k=2, f_theta=1 / 3, initial_clusters=[[0, 1], [2, 3], [4, 5]]
        )
        assert len(result.clusters) == 2
        assert sum(len(c) for c in result.clusters) == 6

    def test_partial_partition_leaves_points_out(self):
        links = links_from_pairs(4, [(0, 1, 4)])
        result = cluster_with_links(
            links, k=1, f_theta=1 / 3, initial_clusters=[[0, 1]]
        )
        assert result.clusters == [[0, 1]]
        assert result.labels().tolist() == [0, 0, -1, -1]

    def test_cross_links_aggregate_over_members(self):
        # two 2-clusters with two point-level cross links of 3 each
        links = links_from_pairs(4, [(0, 2, 3), (1, 3, 3), (0, 1, 1), (2, 3, 1)])
        result = cluster_with_links(
            links, k=1, f_theta=1 / 3, initial_clusters=[[0, 1], [2, 3]]
        )
        assert len(result.clusters) == 1
        # the merge saw 6 aggregated cross links
        expected_g = 6 / (4.0 ** (5 / 3) - 2 * 2.0 ** (5 / 3))
        assert result.merges[0].goodness == pytest.approx(expected_g)

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            cluster_with_links(
                LinkTable(3), k=1, f_theta=0.5, initial_clusters=[[0, 1], [1, 2]]
            )

    def test_out_of_range_point_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cluster_with_links(
                LinkTable(2), k=1, f_theta=0.5, initial_clusters=[[0, 5]]
            )

    def test_empty_initial_cluster_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cluster_with_links(
                LinkTable(2), k=1, f_theta=0.5, initial_clusters=[[]]
            )


class TestGoodnessStrategies:
    def test_naive_goodness_lets_large_cluster_swallow(self):
        """Section 4.2: without normalisation, the larger cluster wins on
        raw cross-link count even when the small pair fits better."""
        # cluster A = {0..4} densely linked; points 5,6 tightly linked
        pairs = []
        for i, j in combinations(range(5), 2):
            pairs.append((i, j, 5))
        pairs += [(5, 6, 4)]
        # the big cluster accumulates 5 weak cross links to point 5,
        # overtaking the pair's raw count of 4 once A has formed
        pairs += [(i, 5, 1) for i in range(5)]
        links = links_from_pairs(7, pairs)

        normalised = cluster_with_links(links, k=2, f_theta=1 / 3)
        naive = cluster_with_links(links, k=2, f_theta=1 / 3, goodness_fn=naive_goodness)
        assert [5, 6] in [sorted(c) for c in normalised.clusters]
        # raw counts pull 5 into the big cluster (5 cross links vs 4)
        assert [5, 6] not in [sorted(c) for c in naive.clusters]


class TestRockEndToEnd:
    def test_figure1_clusters_unmixed_before_cross_merges(self):
        """Figure 1 data: the first 10 merges are all within ground-truth
        clusters, so at k=4 no cluster mixes the two transaction groups.
        (See EXPERIMENTS.md E2: at k=2 the published greedy attaches the
        {1,2,x} pair of the small group to the big cluster -- the paper's
        exact claim is the point-level one tested below.)"""
        big = [frozenset(c) for c in combinations([1, 2, 3, 4, 5], 3)]
        small = [frozenset(c) for c in combinations([1, 2, 6, 7], 3)]
        ds = TransactionDataset([Transaction(t) for t in big + small])
        result = rock(ds, k=4, theta=0.5)
        truth = [0] * len(big) + [1] * len(small)
        for cluster in result.clusters:
            assert len({truth[p] for p in cluster}) == 1

    def test_figure1_max_link_partner_in_own_cluster(self):
        """Section 3.2: 'for each transaction, the transaction that it has
        the most links with is a transaction in its own cluster'."""
        big = [frozenset(c) for c in combinations([1, 2, 3, 4, 5], 3)]
        small = [frozenset(c) for c in combinations([1, 2, 6, 7], 3)]
        ds = TransactionDataset([Transaction(t) for t in big + small])
        truth = [0] * len(big) + [1] * len(small)
        graph = compute_neighbor_graph(ds, theta=0.5)
        links = compute_links(graph)
        for i in range(len(ds)):
            row = links.row(i)
            if not row:
                continue
            best = max(row.values())
            best_partners = [j for j, c in row.items() if c == best]
            assert any(truth[j] == truth[i] for j in best_partners)

    def test_well_separated_clusters_recovered(self):
        a = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
        b = [{7, 8, 9}, {7, 8, 10}, {7, 9, 10}, {8, 9, 10}]
        ds = TransactionDataset(a + b)
        result = rock(ds, k=2, theta=0.4)
        assert sorted(map(sorted, result.clusters)) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_sparse_and_dense_link_methods_agree(self):
        ds = TransactionDataset(
            [{1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {8, 9}, {8, 10}, {9, 10}]
        )
        graph = compute_neighbor_graph(ds, 0.4)
        a, b = (
            cluster_with_links(
                compute_links(graph, method=method), k=2, f_theta=default_f(0.4)
            )
            for method in ("dense", "sparse")
        )
        assert a.clusters == b.clusters == rock(ds, k=2, theta=0.4).clusters
