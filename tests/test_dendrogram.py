"""Tests for the dendrogram view over ROCK merge histories."""

import pytest

from repro.core.dendrogram import Dendrogram
from repro.core.rock import MergeStep, cluster_with_links
from tests.linktables import link_table


def links_from_pairs(n, pairs):
    return link_table(n, pairs)


@pytest.fixture
def chain_result():
    # two tight pairs loosely linked: merges happen pair-first
    links = links_from_pairs(
        4, [(0, 1, 9), (2, 3, 9), (1, 2, 1)]
    )
    return cluster_with_links(links, k=1, f_theta=1 / 3)


class TestConstruction:
    def test_from_result(self, chain_result):
        tree = Dendrogram.from_result(chain_result)
        assert tree.n_initial == 4
        assert len(tree.merges) == 3

    def test_members_of_merged_nodes(self, chain_result):
        tree = Dendrogram.from_result(chain_result)
        # node 4 is the first merge, node 6 the root
        assert tree.members(chain_result.merges[0].merged) in ([0, 1], [2, 3])
        assert tree.members(chain_result.merges[-1].merged) == [0, 1, 2, 3]

    def test_initial_clusters_supported(self):
        merges = [MergeStep(left=0, right=1, merged=2, goodness=1.0, size=5)]
        tree = Dendrogram(5, merges, initial_clusters=[[0, 1, 4], [2, 3]])
        assert tree.n_initial == 2
        assert tree.members(2) == [0, 1, 2, 3, 4]

    def test_bad_merge_ids_rejected(self):
        merges = [MergeStep(left=0, right=1, merged=7, goodness=1.0, size=2)]
        with pytest.raises(ValueError, match="consecutive"):
            Dendrogram(3, merges)

    def test_dead_cluster_reference_rejected(self):
        merges = [
            MergeStep(left=0, right=1, merged=3, goodness=1.0, size=2),
            MergeStep(left=0, right=2, merged=4, goodness=1.0, size=3),
        ]
        with pytest.raises(ValueError, match="not alive"):
            Dendrogram(3, merges)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            Dendrogram(0, [])


class TestCut:
    def test_cut_reproduces_every_granularity(self, chain_result):
        tree = Dendrogram.from_result(chain_result)
        assert tree.cut(4) == [[0], [1], [2], [3]]
        two = tree.cut(2)
        assert sorted(map(sorted, two)) == [[0, 1], [2, 3]]
        assert tree.cut(1) == [[0, 1, 2, 3]]

    def test_cut_matches_fresh_run_at_same_k(self):
        links = links_from_pairs(
            6, [(0, 1, 5), (1, 2, 4), (3, 4, 5), (4, 5, 4), (2, 3, 1)]
        )
        full = cluster_with_links(links, k=1, f_theta=1 / 3)
        tree = Dendrogram.from_result(full)
        for k in (2, 3):
            fresh = cluster_with_links(links, k=k, f_theta=1 / 3)
            assert sorted(map(tuple, tree.cut(k))) == sorted(
                map(tuple, fresh.clusters)
            )

    def test_cut_out_of_range(self, chain_result):
        tree = Dendrogram.from_result(chain_result)
        with pytest.raises(ValueError):
            tree.cut(0)
        with pytest.raises(ValueError):
            tree.cut(5)


class TestGoodnessDiagnostics:
    def test_trace_matches_merges(self, chain_result):
        tree = Dendrogram.from_result(chain_result)
        assert list(tree.goodness_trace()) == [
            m.goodness for m in chain_result.merges
        ]

    def test_suggest_k_finds_the_drop(self):
        # two clean clusters: the pair merges are good, the bridging
        # merge is poor -- suggest_k should say 2
        links = links_from_pairs(
            6,
            [(0, 1, 9), (0, 2, 9), (1, 2, 9), (3, 4, 9), (3, 5, 9), (4, 5, 9),
             (2, 3, 1)],
        )
        result = cluster_with_links(links, k=1, f_theta=1 / 3)
        tree = Dendrogram.from_result(result)
        assert tree.suggest_k() == 2

    def test_suggest_k_with_few_merges(self):
        links = links_from_pairs(2, [(0, 1, 1)])
        result = cluster_with_links(links, k=1, f_theta=1 / 3)
        tree = Dendrogram.from_result(result)
        assert tree.suggest_k() in (1, 2)

    def test_suggest_k_respects_min_k(self):
        links = links_from_pairs(
            6,
            [(0, 1, 9), (0, 2, 9), (1, 2, 9), (3, 4, 9), (3, 5, 9), (4, 5, 9),
             (2, 3, 1)],
        )
        result = cluster_with_links(links, k=1, f_theta=1 / 3)
        tree = Dendrogram.from_result(result)
        assert tree.suggest_k(min_k=3) >= 3
        with pytest.raises(ValueError):
            tree.suggest_k(min_k=0)
