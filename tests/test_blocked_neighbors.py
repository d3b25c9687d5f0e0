"""Budget routing, block-scorer support, and the sparse NeighborGraph.

The identity of every fit route with the dense path is property-tested
in ``tests/test_fit_planner.py``; the fused kernel's multi-block
stitching at tiny block sizes in ``tests/test_parallel_fit.py``.
"""

import numpy as np
import pytest

import repro.core.neighbors as neighbors_mod
from repro.core.links import compute_links
from repro.core.neighbors import (
    DEFAULT_MEMORY_BUDGET,
    NeighborGraph,
    build_block_scorer,
    compute_neighbor_graph,
    dense_similarity_bytes,
    supports_blocked,
)
from repro.core.pipeline import plan_fit
from repro.core.similarity import (
    MissingAwareJaccard,
    OverlapSimilarity,
    SimilarityTable,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.parallel.links import fused_neighbor_links


# -- route/budget selection --------------------------------------------------


class TestAutoSelection:
    # every basket holds items -1 .. -5: S ~ 5 n^2 / 2, over both tiers'
    # shared-item gates, so within budget the dense route runs
    def test_auto_blocks_when_budget_exceeded(self):
        dataset = TransactionDataset(
            [Transaction({-1, -2, -3, -4, -5, i, i + 1}) for i in range(40)]
        )
        assert plan_fit(dataset, 0.3, memory_budget=1).route in ("native", "fused")
        assert plan_fit(dataset, 0.3).route == "dense"

    def test_auto_stays_dense_within_budget(self):
        dataset = TransactionDataset(
            [Transaction({-1, -2, -3, -4, -5, i, i + 1}) for i in range(10)]
        )
        plan = plan_fit(dataset, 0.3, memory_budget=DEFAULT_MEMORY_BUDGET)
        assert plan.route == "dense"
        assert plan.memory_budget == DEFAULT_MEMORY_BUDGET

    def test_auto_falls_back_to_bruteforce_for_tables(self):
        # a similarity table has no block scorer; a tiny budget must
        # not break it -- the planner keeps the pairwise oracle
        table = SimilarityTable({("a", "b"): 0.9})
        assert plan_fit(["a", "b"], 0.5, table, memory_budget=1).route == "bruteforce"
        graph = compute_neighbor_graph(["a", "b"], 0.5, similarity=table)
        assert graph.are_neighbors(0, 1)

    def test_blocked_requires_kernel(self):
        table = SimilarityTable({("a", "b"): 0.9})
        with pytest.raises(ValueError, match="block scorer"):
            build_block_scorer(["a", "b"], table)

    def test_supports_blocked(self):
        txns = TransactionDataset([Transaction({1})])
        schema = CategoricalSchema(("f",))
        recs = [CategoricalRecord(schema, ("v",))]
        assert supports_blocked(txns)
        assert supports_blocked(txns, OverlapSimilarity())
        assert not supports_blocked(txns, MissingAwareJaccard())
        assert supports_blocked(CategoricalDataset(schema, recs))
        assert supports_blocked([Transaction({1}), Transaction({2})])
        assert supports_blocked(recs, MissingAwareJaccard())
        assert not supports_blocked(recs)  # plain Jaccard on raw records
        assert not supports_blocked(["a"], SimilarityTable({("a", "a"): 1.0}))
        assert not supports_blocked([])

    def test_dense_similarity_bytes(self):
        assert dense_similarity_bytes(1000) == 8_000_000

    def test_validation(self):
        dataset = TransactionDataset([Transaction({1})])
        with pytest.raises(ValueError, match="theta"):
            compute_neighbor_graph(dataset, 1.5)
        with pytest.raises(ValueError, match="theta"):
            fused_neighbor_links(dataset, 1.5)
        with pytest.raises(ValueError, match="block_size"):
            fused_neighbor_links(dataset, 0.5, block_size=0)

    def test_empty_dataset(self):
        fused = fused_neighbor_links(TransactionDataset([]), 0.5, keep_graph=True)
        assert fused.graph.n == 0
        assert fused.graph.edge_count() == 0
        assert fused.links.nnz_pairs() == 0


# -- sparse-backed NeighborGraph behaviours ----------------------------------


class TestSparseNeighborGraph:
    def make(self):
        # 0-1 and 1-2 neighbors, 3 isolated
        return NeighborGraph.from_neighbor_lists(
            [[1], [0, 2], [1], []], theta=0.5
        )

    def test_accessors_without_densifying(self):
        g = self.make()
        assert not g.has_dense
        assert g.n == 4 and len(g) == 4
        assert g.degrees().tolist() == [1, 2, 1, 0]
        assert g.edge_count() == 2
        assert g.are_neighbors(0, 1) and g.are_neighbors(2, 1)
        assert not g.are_neighbors(0, 2)
        assert g.isolated_points().tolist() == [3]
        assert not g.has_dense  # none of the above densified

    def test_lazy_densify_matches_lists(self):
        g = self.make()
        adj = g.adjacency
        assert g.has_dense
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 1] = expected[1, 0] = True
        expected[1, 2] = expected[2, 1] = True
        assert np.array_equal(adj, expected)

    def test_densify_refused_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(neighbors_mod, "DENSIFY_LIMIT", 8)
        g = self.make()
        with pytest.raises(ValueError, match="densify"):
            _ = g.adjacency
        # sparse accessors still work under the limit
        assert g.degrees().tolist() == [1, 2, 1, 0]

    def test_subgraph_stays_sparse(self):
        g = self.make()
        sub = g.subgraph([0, 1, 3])
        assert not sub.has_dense
        assert sub.n == 3
        assert [lst.tolist() for lst in sub.neighbor_lists()] == [[1], [0], []]
        assert sub.theta == g.theta

    def test_validation_rejects_bad_lists(self):
        with pytest.raises(ValueError, match="out of range"):
            NeighborGraph.from_neighbor_lists([[5], []])
        with pytest.raises(ValueError, match="sorted"):
            NeighborGraph.from_neighbor_lists([[2, 1], [0], [0]])
        with pytest.raises(ValueError, match="itself"):
            NeighborGraph.from_neighbor_lists([[0, 1], [0]])
        with pytest.raises(ValueError, match="asymmetric"):
            NeighborGraph.from_neighbor_lists([[1], []])

    def test_links_auto_uses_sparse_path(self):
        g = self.make()
        links = compute_links(g)
        assert not g.has_dense  # link counting never densified
        # point 1 is the single common neighbor of the pair (0, 2)
        assert links.get(0, 2) == 1
        assert links.get(0, 1) == 0
