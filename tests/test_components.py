"""Tests for union-find and the QROCK connected-components fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import UnionFind, connected_components, qrock
from repro.core.links import compute_links
from repro.core.neighbors import NeighborGraph, compute_neighbor_graph
from repro.core.rock import cluster_with_links
from repro.data.transactions import Transaction, TransactionDataset


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return NeighborGraph(adj)


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(4)
        assert uf.n_components == 4
        assert not uf.connected(0, 1)
        assert uf.component_size(2) == 1

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)  # already joined
        assert uf.connected(0, 2)
        assert uf.component_size(1) == 3
        assert uf.n_components == 3

    def test_components_listing(self):
        uf = UnionFind(5)
        uf.union(0, 3)
        uf.union(1, 4)
        comps = uf.components()
        assert sorted(map(tuple, comps)) == [(0, 3), (1, 4), (2,)]
        assert len(comps[0]) >= len(comps[-1])  # largest first

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @settings(max_examples=60)
    @given(
        st.integers(1, 25),
        st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=60),
    )
    def test_matches_bruteforce_reachability(self, n, raw_edges):
        edges = [(a % n, b % n) for a, b in raw_edges if a % n != b % n]
        uf = UnionFind(n)
        for a, b in edges:
            uf.union(a, b)
        # brute-force reachability via adjacency powers
        adj = np.eye(n, dtype=bool)
        for a, b in edges:
            adj[a, b] = adj[b, a] = True
        reach = adj.copy()
        for _ in range(n):
            reach = reach | (reach @ adj)
        for i in range(n):
            for j in range(n):
                assert uf.connected(i, j) == bool(reach[i, j])


class TestConnectedComponents:
    def test_two_triangles(self):
        g = graph_from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_isolated_points_are_singletons(self):
        g = graph_from_edges(3, [(0, 1)])
        assert connected_components(g) == [[0, 1], [2]]

    def test_empty_graph(self):
        g = graph_from_edges(4, [])
        assert connected_components(g) == [[0], [1], [2], [3]]


class TestQrockVsRock:
    def test_qrock_on_transactions(self):
        ds = TransactionDataset(
            [{1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {7, 8, 9}, {7, 8, 10}, {7, 9, 10}, {42}]
        )
        clusters, outliers = qrock(ds, theta=0.4, min_cluster_size=2)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4, 5]]
        assert outliers == [6]

    def test_min_cluster_size_validation(self):
        with pytest.raises(ValueError):
            qrock(TransactionDataset([{1}]), theta=0.5, min_cluster_size=0)

    def test_rock_partition_refines_components(self):
        """However far the merge loop runs, no ROCK cluster spans two
        components of the neighbor graph."""
        ds = TransactionDataset(
            [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {9, 10}, {9, 11}, {10, 11}, {50, 51}]
        )
        graph = compute_neighbor_graph(ds, theta=0.4)
        components = connected_components(graph)
        component_of = {}
        for c, members in enumerate(components):
            for p in members:
                component_of[p] = c
        result = cluster_with_links(compute_links(graph), k=1, f_theta=1 / 3)
        for cluster in result.clusters:
            assert len({component_of[p] for p in cluster}) == 1

    def test_path_graph_breaks_equality(self):
        """The documented counterexample: a 3-point path has one
        component but ROCK stops at two clusters ({ends}, {middle})."""
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        result = cluster_with_links(compute_links(g), k=1, f_theta=1 / 3)
        assert len(result.clusters) == 2
        assert [0, 2] in [sorted(c) for c in result.clusters]
        assert len(connected_components(g)) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 10),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
    )
    def test_refinement_property(self, n, raw_edges):
        edges = {(min(a % n, b % n), max(a % n, b % n)) for a, b in raw_edges}
        edges = {(a, b) for a, b in edges if a != b}
        g = graph_from_edges(n, edges)
        components = connected_components(g)
        component_of = {}
        for c, members in enumerate(components):
            for p in members:
                component_of[p] = c
        result = cluster_with_links(compute_links(g), k=1, f_theta=1 / 3)
        for cluster in result.clusters:
            assert len({component_of[p] for p in cluster}) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(3, 5), min_size=1, max_size=4),
    )
    def test_equality_when_every_edge_in_triangle(self, seed, clique_sizes):
        """Cliques of size >= 3: every edge closes a triangle, so a k=1
        ROCK run reaches exactly the components."""
        edges = []
        start = 0
        for size in clique_sizes:
            for i in range(start, start + size):
                for j in range(i + 1, start + size):
                    edges.append((i, j))
            start += size
        n = start
        g = graph_from_edges(n, edges)
        result = cluster_with_links(compute_links(g), k=1, f_theta=1 / 3)
        assert sorted(map(tuple, result.clusters)) == sorted(
            map(tuple, connected_components(g))
        )


def _scipy_labels(m, lo, hi):
    sparse = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import connected_components as scipy_components

    graph = sparse.coo_matrix(
        (np.ones(len(lo), dtype=np.int8), (lo, hi)), shape=(m, m)
    )
    _, labels = scipy_components(graph, directed=False)
    return labels.astype(np.int64)


def _component_label_tiers(m, lo, hi):
    """``{tier: labels}`` from the merge engine's component labeling:
    the C union-find where it probes, and the numpy path always."""
    from repro.core.merge import _component_labels
    from repro.native import get_kernels

    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    tiers = {}
    if get_kernels() is not None:
        tiers["cext"] = _component_labels(m, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NATIVE", "0")
        tiers["numpy"] = _component_labels(m, lo, hi)
    return tiers


@st.composite
def edge_lists(draw):
    """Random graphs, plus the shapes that stress one tier or another:
    no nodes, no edges, chains in either direction, a star."""
    shape = draw(st.sampled_from(["random", "empty", "isolated", "chain", "star"]))
    m = 0 if shape == "empty" else draw(st.integers(min_value=1, max_value=40))
    if shape in ("empty", "isolated"):
        return m, [], []
    if shape == "chain":
        order = draw(st.permutations(range(m)))
        pairs = list(zip(order[:-1], order[1:]))
    elif shape == "star":
        centre = draw(st.integers(min_value=0, max_value=m - 1))
        pairs = [(x, centre) for x in range(m) if x != centre]
    else:
        node = st.integers(min_value=0, max_value=m - 1)
        pairs = draw(st.lists(st.tuples(node, node), max_size=3 * m))
    return m, [a for a, _ in pairs], [b for _, b in pairs]


class TestComponentLabels:
    """The merge engine's component labels (C union-find, numpy label
    propagation) against ``scipy.sparse.csgraph.connected_components``:
    the same labels, numbered by smallest member."""

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_tiers_match_scipy(self, graph):
        m, lo, hi = graph
        expected = _scipy_labels(m, lo, hi)
        for tier, labels in _component_label_tiers(m, lo, hi).items():
            assert labels.dtype == np.int64, tier
            assert labels.tolist() == expected.tolist(), tier

    def test_long_chain_from_the_top(self):
        """A chain whose edges arrive from the largest node down: the
        deepest trees for both tiers."""
        m = 2_000
        lo = np.arange(m - 1, 0, -1)
        for tier, labels in _component_label_tiers(m, lo, lo - 1).items():
            assert not labels.any(), tier
