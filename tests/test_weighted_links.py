"""Tests for the similarity-weighted link variant (Section 3.2 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import LinkTable, dense_link_matrix, weighted_link_matrix
from repro.core.neighbors import (
    NeighborGraph,
    adjacency_from_similarity_matrix,
    compute_neighbor_graph,
    similarity_matrix,
)
from repro.core.rock import cluster_with_links, rock
from repro.data.transactions import Transaction, TransactionDataset
from tests.linktables import link_table


def graph_and_sim(sets, theta):
    ds = TransactionDataset([Transaction(s) for s in sets])
    sim = similarity_matrix(ds)
    graph = NeighborGraph(adjacency_from_similarity_matrix(sim, theta), theta=theta)
    return ds, graph, sim


class TestWeightedLinkMatrix:
    def test_all_ones_similarity_reduces_to_binary(self):
        ds, graph, _ = graph_and_sim([{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}], 0.2)
        ones = np.ones((len(ds), len(ds)))
        np.fill_diagonal(ones, 1.0)
        weighted = weighted_link_matrix(graph, ones)
        assert np.allclose(weighted, dense_link_matrix(graph))

    def test_weighted_never_exceeds_binary(self):
        ds, graph, sim = graph_and_sim(
            [{1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {1, 3, 4}], 0.3
        )
        weighted = weighted_link_matrix(graph, sim)
        binary = dense_link_matrix(graph)
        assert (weighted <= binary + 1e-12).all()

    def test_manual_value(self):
        # path 0-1-2 with known similarities: L_w[0,2] = s01 * s12
        sim = np.array(
            [[1.0, 0.6, 0.1], [0.6, 1.0, 0.5], [0.1, 0.5, 1.0]]
        )
        graph = NeighborGraph(adjacency_from_similarity_matrix(sim, 0.5))
        weighted = weighted_link_matrix(graph, sim)
        assert weighted[0, 2] == pytest.approx(0.6 * 0.5)
        assert weighted[0, 1] == pytest.approx(0.0)  # no common neighbor

    def test_shape_mismatch_rejected(self):
        graph = NeighborGraph(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            weighted_link_matrix(graph, np.ones((3, 3)))

    def test_symmetric_and_hollow(self):
        ds, graph, sim = graph_and_sim(
            [{1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {5, 6}], 0.3
        )
        weighted = weighted_link_matrix(graph, sim)
        assert np.array_equal(weighted, weighted.T)
        assert not weighted.diagonal().any()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 10), min_size=1, max_size=5),
                 min_size=2, max_size=12),
        st.floats(0.1, 0.9),
    )
    def test_float_table_roundtrip(self, sets, theta):
        ds, graph, sim = graph_and_sim(sets, theta)
        weighted = weighted_link_matrix(graph, sim)
        table = LinkTable.from_dense(weighted)
        assert np.allclose(table.to_dense(), weighted)


class TestWeightedClustering:
    def test_rock_weighted_end_to_end(self):
        a = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
        b = [{7, 8, 9}, {7, 8, 10}, {7, 9, 10}, {8, 9, 10}]
        ds = TransactionDataset(a + b)
        result = rock(ds, k=2, theta=0.4, weighted_links=True)
        assert sorted(map(sorted, result.clusters)) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_weighted_downweights_marginal_bridges(self):
        """Two triangles bridged through a point whose similarities are
        barely over threshold: binary links see a solid bridge, the
        weighted variant discounts it."""
        sim = np.eye(7)
        strong, weak = 0.9, 0.41
        for i, j in [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]:
            sim[i, j] = sim[j, i] = strong
        for i, j in [(2, 3), (3, 4), (1, 3), (3, 5)]:
            sim[i, j] = sim[j, i] = weak
        graph = NeighborGraph(adjacency_from_similarity_matrix(sim, 0.4))
        binary = dense_link_matrix(graph)
        weighted = weighted_link_matrix(graph, sim)
        # bridge pair (1, 3): binary counts 1 link (via 2); weighted
        # discounts it below the weighted within-triangle links
        assert binary[1, 3] >= 1
        assert weighted[1, 3] < weighted[0, 1]

    def test_merge_loop_accepts_float_links(self):
        table = link_table(4, [(0, 1, 2.5), (2, 3, 2.5), (1, 2, 0.3)])
        result = cluster_with_links(table, k=2, f_theta=1 / 3)
        assert sorted(map(sorted, result.clusters)) == [[0, 1], [2, 3]]
