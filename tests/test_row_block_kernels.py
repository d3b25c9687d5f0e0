"""Row-blocked BLAS kernels of the in-memory fit against their oracles.

The dense fit path fills its boolean adjacency from row blocks of
scores, squares it into a :class:`LinkTable` block by block, and labels
the unsampled points in :class:`LabelingIndex` row blocks.  Each must
reproduce its oracle exactly -- thresholded ``pairwise`` similarity,
``LinkTable.from_dense(dense_link_matrix(g))``, and the per-point
``ClusterLabeler.assign`` loop -- for every block size, including the
sizes that put ``n`` on a block boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.labeling as labeling_mod
from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.core.links import (
    LinkTable,
    blocked_link_table,
    compute_links,
    dense_link_matrix,
)
from repro.core.neighbors import (
    DENSE_BLOCK_ROWS,
    DenseTransactionScorer,
    NeighborGraph,
    adjacency_from_similarity_matrix,
    blocked_adjacency,
    build_block_scorer,
    compute_neighbor_graph,
)
from repro.core.pipeline import RockPipeline
from repro.core.encoding import dataset_to_transactions
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
    similarity_levels,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset

SIMILARITIES = [JaccardSimilarity(), OverlapSimilarity()]

# empty transactions included: their similarity to anything is 0, but
# the diagonal still counts them as identical
item_set = st.frozensets(st.integers(0, 9), max_size=5)


@st.composite
def blocked_inputs(draw):
    """``(sets, block_rows)`` with ``n`` in {1, B-1, B, B+1}."""
    block_rows = draw(st.integers(1, 9))
    n = draw(st.sampled_from([1, block_rows - 1, block_rows, block_rows + 1]))
    sets = draw(st.lists(item_set, min_size=max(n, 1), max_size=max(n, 1)))
    return sets, block_rows


@st.composite
def thetas(draw):
    """0, 1, or one of the similarity levels two drawn sizes can take."""
    kind = draw(st.sampled_from(["zero", "one", "level"]))
    if kind == "zero":
        return 0.0
    if kind == "one":
        return 1.0
    return draw(st.sampled_from(similarity_levels(draw(st.integers(0, 5)),
                                                  draw(st.integers(0, 5)))))


def oracle_adjacency(dataset, similarity, theta):
    return adjacency_from_similarity_matrix(similarity.pairwise(dataset), theta)


class TestBlockedAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(blocked_inputs(), thetas(), st.sampled_from(SIMILARITIES))
    def test_equals_thresholded_pairwise(self, inputs, theta, similarity):
        sets, block_rows = inputs
        ds = TransactionDataset([Transaction(s) for s in sets])
        scorer = DenseTransactionScorer(ds, isinstance(similarity, OverlapSimilarity))
        got = blocked_adjacency(scorer, theta, block_rows=block_rows)
        assert got.dtype == bool
        assert np.array_equal(got, oracle_adjacency(ds, similarity, theta))

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([DENSE_BLOCK_ROWS - 1, DENSE_BLOCK_ROWS,
                         DENSE_BLOCK_ROWS + 1]),
        st.integers(0, 2**16),
        thetas(),
        st.sampled_from(SIMILARITIES),
    )
    def test_default_blocks_through_compute_neighbor_graph(
        self, n, seed, theta, similarity
    ):
        rng = np.random.default_rng(seed)
        sets = [
            frozenset(rng.choice(12, size=rng.integers(0, 5), replace=False).tolist())
            for _ in range(n)
        ]
        ds = TransactionDataset([Transaction(s) for s in sets])
        expected = oracle_adjacency(ds, similarity, theta)
        for method in ("auto", "vectorized"):
            graph = compute_neighbor_graph(ds, theta, similarity=similarity, method=method)
            assert np.array_equal(graph.adjacency, expected)
        # a plain list of sets takes the same blocked path
        graph = compute_neighbor_graph(sets, theta, similarity=similarity)
        assert np.array_equal(graph.adjacency, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda b: st.tuples(
            st.just(b),
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "c", None]),
                    st.sampled_from(["x", "y", None]),
                    st.sampled_from([0, 1, 2, None]),
                ),
                min_size=max(b - 1, 1), max_size=b + 1,
            ),
        )),
        thetas(),
    )
    def test_records_equal_thresholded_pairwise(self, inputs, theta):
        block_rows, rows = inputs
        schema = CategoricalSchema(("f1", "f2", "f3"))
        records = [CategoricalRecord(schema, row) for row in rows]
        dataset = CategoricalDataset(schema, rows)
        missing_aware = adjacency_from_similarity_matrix(
            MissingAwareJaccard().pairwise(records), theta
        )
        av_jaccard = oracle_adjacency(
            dataset_to_transactions(dataset), JaccardSimilarity(), theta
        )
        for points, similarity, expected in (
            (records, MissingAwareJaccard(), missing_aware),
            (dataset, MissingAwareJaccard(), missing_aware),
            (dataset, JaccardSimilarity(), av_jaccard),
        ):
            scorer = build_block_scorer(points, similarity)
            got = blocked_adjacency(scorer, theta, block_rows=block_rows)
            assert np.array_equal(got, expected)
            graph = compute_neighbor_graph(points, theta, similarity=similarity)
            assert np.array_equal(graph.adjacency, expected)

    def test_all_empty_transactions(self):
        ds = TransactionDataset([Transaction(set()) for _ in range(5)])
        graph = compute_neighbor_graph(ds, 0.0)
        # sim is 0 off the diagonal, which clears theta = 0 only
        assert graph.edge_count() == 10
        assert compute_neighbor_graph(ds, 0.5).edge_count() == 0


@st.composite
def blocked_graphs(draw):
    """``(graph, block_rows)`` with ``n`` in {1, B-1, B, B+1}."""
    block_rows = draw(st.integers(1, 9))
    n = max(draw(st.sampled_from([1, block_rows - 1, block_rows, block_rows + 1])), 1)
    upper = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    a = np.triu(np.array(upper, dtype=bool).reshape(n, n), k=1)
    return NeighborGraph(a | a.T), block_rows


class TestBlockedLinkTable:
    @settings(max_examples=150, deadline=None)
    @given(blocked_graphs())
    def test_equals_from_dense_row_for_row(self, inputs):
        graph, block_rows = inputs
        oracle = LinkTable.from_dense(dense_link_matrix(graph))
        table = blocked_link_table(graph, block_rows=block_rows)
        assert table.n == oracle.n
        for i in range(graph.n):
            assert list(table.row(i).items()) == list(oracle.row(i).items())
            assert all(type(count) is int for count in table.row(i).values())

    @pytest.mark.parametrize(
        "n", [DENSE_BLOCK_ROWS - 1, DENSE_BLOCK_ROWS, DENSE_BLOCK_ROWS + 1]
    )
    def test_default_blocks_through_compute_links(self, n):
        rng = np.random.default_rng(n)
        a = np.triu(rng.random((n, n)) < 0.2, k=1)
        graph = NeighborGraph(a | a.T)
        oracle = LinkTable.from_dense(dense_link_matrix(graph))
        table = compute_links(graph, method="dense")
        for i in range(n):
            assert list(table.row(i).items()) == list(oracle.row(i).items())
            assert all(type(count) is int for count in table.row(i).values())


CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4}), Transaction({2, 3, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]
QUERIES = [Transaction({1, 2, 3}), Transaction({7, 8, 9}), Transaction({42}),
           Transaction(set()), Transaction({1, 2, 7, 8})]


def per_point(labeler, points):
    return [labeler.assign(p) for p in points]


class TestAssignAll:
    def test_accepts_a_generator(self):
        labeler = ClusterLabeler([CLUSTER_A, CLUSTER_B], theta=0.4)
        labels = labeler.assign_all(p for p in QUERIES)
        assert labels.dtype == np.int64
        assert labels.tolist() == per_point(labeler, QUERIES)

    @pytest.mark.parametrize("similarity", [None, lambda a, b: JaccardSimilarity()(a, b)])
    def test_empty_input(self, similarity):
        labeler = ClusterLabeler([CLUSTER_A], theta=0.4, similarity=similarity)
        labels = labeler.assign_all(iter([]))
        assert labels.dtype == np.int64
        assert labels.shape == (0,)

    @pytest.mark.parametrize("similarity", [None, lambda a, b: JaccardSimilarity()(a, b)])
    def test_empty_labeling_sets(self, similarity):
        labeler = ClusterLabeler([[], CLUSTER_B, []], theta=0.4, similarity=similarity)
        assert (labeler.index is not None) == (similarity is None)
        labels = labeler.assign_all(QUERIES)
        assert labels.tolist() == per_point(labeler, QUERIES)
        assert 0 not in labels.tolist() and 2 not in labels.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(item_set, max_size=6), min_size=1, max_size=4).filter(
            lambda sets: any(sets)
        ),
        st.lists(item_set, max_size=30),
        thetas(),
        st.integers(1, 7),
    )
    def test_index_blocks_equal_per_point(self, reps, points, theta, block_size):
        labeler = ClusterLabeler(
            [[Transaction(s) for s in li] for li in reps], theta=theta
        )
        expected = per_point(labeler, points)
        assert labeler.assign_all(points).tolist() == expected
        assert labeler.index.assign(points, block_size=block_size).tolist() == expected


class TestAssignBlockBudget:
    def test_default_rows_follow_the_widest_temporary(self, monkeypatch):
        wide = LabelingIndex([[Transaction(set(range(5000)))]], theta=0.5, f_theta=1.0)
        tall = LabelingIndex(
            [[Transaction({i}) for i in range(3000)]], theta=0.5, f_theta=1.0
        )
        budget = labeling_mod.ASSIGN_BLOCK_BYTES
        assert wide.default_block_size() == budget // (8 * 5000)
        assert tall.default_block_size() == budget // (8 * 3000)
        monkeypatch.setattr(labeling_mod, "ASSIGN_BLOCK_BYTES", 1)
        assert wide.default_block_size() == 1

    def test_explicit_block_size_is_honoured(self, monkeypatch):
        index = ClusterLabeler([CLUSTER_A, CLUSTER_B], theta=0.4).index
        seen = []
        original = LabelingIndex.neighbor_counts

        def counting(self, points):
            seen.append(len(points))
            return original(self, points)

        monkeypatch.setattr(LabelingIndex, "neighbor_counts", counting)
        index.assign(QUERIES, block_size=2)
        assert seen == [2, 2, 1]
        seen.clear()
        monkeypatch.setattr(labeling_mod, "ASSIGN_BLOCK_BYTES", 8 * index.rep_matrix.shape[1] * 3)
        index.assign(QUERIES)
        assert seen == [3, 2]


def _basket_data(seed, n_clusters=4, per_cluster=60, noise=20):
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_clusters):
        pool = np.arange(c * 12, c * 12 + 12)
        rows += [frozenset(rng.choice(pool, size=6, replace=False).tolist())
                 for _ in range(per_cluster)]
    rows += [frozenset(rng.choice(200, size=4, replace=False).tolist())
             for _ in range(noise)]
    order = rng.permutation(len(rows))
    return TransactionDataset([Transaction(rows[i]) for i in order])


def _per_point_assign_all(self, points):
    return np.array([self.assign(p) for p in points], dtype=np.int64)


class TestPipelineLabeling:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "similarity", [None, lambda a, b: JaccardSimilarity()(a, b)],
        ids=["jaccard-index", "custom-scalar"],
    )
    def test_sampled_fit_labels_equal_per_point_loop(self, monkeypatch, seed, similarity):
        ds = _basket_data(seed)

        def fit():
            return RockPipeline(
                k=4, theta=0.4, similarity=similarity, sample_size=80, seed=seed
            ).fit(ds)

        batched = fit()
        monkeypatch.setattr(ClusterLabeler, "assign_all", _per_point_assign_all)
        looped = fit()
        assert batched.labels.tolist() == looped.labels.tolist()
        assert batched.clusters == looped.clusters
        assert (batched.labels >= 0).sum() > len(ds) // 2
