"""Tests for link computation (Sections 3.2, 4.4, Figure 4)."""

import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import (
    SQUARE_LINK_WORK,
    LinkTable,
    blocked_link_table,
    compute_links,
    dense_link_matrix,
    link_tier,
    neighbor_list_links,
    path_link_matrix,
    row_link_table,
    sparse_link_table,
    square_link_bytes,
    square_pays,
)
from repro.core.neighbors import NeighborGraph, compute_neighbor_graph
from repro.core.pipeline import FitPlan, RockPipeline, plan_fit, run_fit_plan
from repro.data.transactions import Transaction, TransactionDataset
from repro.native import cext, get_kernels
from repro.native.links import native_neighbor_links
from repro.obs.trace import Tracer
from repro.parallel.links import fused_neighbor_links
from tests.linktables import link_table
from tests.threads import forced_threads


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return NeighborGraph(adj)


def random_graph_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        edges = draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=n * (n - 1) // 2,
            )
        )
        return graph_from_edges(n, edges)

    return build()


class TestLinkTable:
    def test_increment_and_get_symmetric(self):
        table = link_table(3, [(0, 2, 1), (2, 0, 4)])
        assert table.get(0, 2) == 5
        assert table.get(2, 0) == 5
        assert table.get(0, 1) == 0

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            link_table(2, [(1, 1, 1)])
        with pytest.raises(ValueError):
            LinkTable(2).get(0, 0)

    def test_pairs_each_once(self):
        table = link_table(3, [(0, 1, 2), (1, 2, 3)])
        assert sorted(table.pairs()) == [(0, 1, 2), (1, 2, 3)]
        assert table.nnz_pairs() == 2

    def test_dense_round_trip(self):
        table = link_table(4, [(0, 3, 7), (1, 2, 1)])
        dense = table.to_dense()
        back = LinkTable.from_dense(dense)
        assert sorted(back.pairs()) == sorted(table.pairs())

    def test_holds_arrays_not_dicts(self):
        table = link_table(4, [(0, 3, 7), (1, 2, 1)])
        table.row(0)  # builds the lazy row index
        assert table.codes.tolist() == [3, 6]
        assert table.counts.tolist() == [7, 1]
        assert not any(
            isinstance(value, (dict, list)) for value in vars(table).values()
        )

    def test_unsorted_pair_codes_are_sorted(self):
        table = LinkTable.from_pair_counts(3, np.array([5, 1]), np.array([2, 3]))
        assert table.codes.tolist() == [1, 5]
        assert table.counts.tolist() == [3, 2]
        assert table.get(0, 1) == 3
        assert table.get(2, 1) == 2

    def test_duplicate_pair_codes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LinkTable.from_pair_counts(3, np.array([1, 1]), np.array([2, 5]))

    @pytest.mark.parametrize("count", [0, -1, 0.0])
    def test_non_positive_counts_rejected(self, count):
        with pytest.raises(ValueError, match="positive"):
            LinkTable.from_pair_counts(3, np.array([1, 2]), np.array([3, count]))

    def test_lower_triangle_code_rejected(self):
        with pytest.raises(ValueError, match="i < j"):
            LinkTable.from_pair_counts(3, np.array([3]), np.array([1]))  # (1, 0)

    def test_from_dense_validation(self):
        with pytest.raises(ValueError, match="square"):
            LinkTable.from_dense(np.zeros((2, 3)))
        asym = np.zeros((2, 2), dtype=np.int64)
        asym[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            LinkTable.from_dense(asym)
        diag = np.eye(2, dtype=np.int64)
        with pytest.raises(ValueError, match="diagonal"):
            LinkTable.from_dense(diag)


class TestLinkCounts:
    def test_triangle_every_pair_links_once(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        links = dense_link_matrix(g)
        # in a triangle each pair has exactly one common neighbor
        for i, j in combinations(range(3), 2):
            assert links[i, j] == 1

    def test_star_leaves_link_through_hub(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        links = dense_link_matrix(g)
        for i, j in combinations([1, 2, 3], 2):
            assert links[i, j] == 1
        assert links[0, 1] == 0  # hub shares no neighbor with a leaf

    def test_path_endpoints(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        links = dense_link_matrix(g)
        assert links[0, 2] == 1
        assert links[0, 1] == 0

    def test_isolated_point_zero_links(self):
        g = graph_from_edges(3, [(0, 1)])
        assert dense_link_matrix(g)[2].sum() == 0

    def test_diagonal_zeroed(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert dense_link_matrix(g).diagonal().tolist() == [0, 0, 0]

    def test_example_1_2_exact_counts(self):
        """The paper's Example 1.2 / Section 3.2 link counts, verbatim."""
        big = [frozenset(c) for c in combinations([1, 2, 3, 4, 5], 3)]
        small = [frozenset(c) for c in combinations([1, 2, 6, 7], 3)]
        ds = TransactionDataset([Transaction(t) for t in big + small])
        idx = {t.items: i for i, t in enumerate(ds)}
        graph = compute_neighbor_graph(ds, theta=0.5)
        links = compute_links(graph)

        def link(a, b):
            return links.get(idx[frozenset(a)], idx[frozenset(b)])

        assert link({1, 2, 3}, {1, 2, 4}) == 5
        assert link({1, 2, 3}, {1, 2, 6}) == 3
        assert link({1, 2, 6}, {1, 2, 7}) == 5
        assert link({1, 6, 7}, {1, 2, 6}) == 2
        # {1,6,7} has 0 links with non-12x members of the big cluster
        assert link({1, 6, 7}, {3, 4, 5}) == 0


class TestSparseDenseEquivalence:
    def test_forced_methods_agree(self):
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)])
        dense = compute_links(g, method="dense").to_dense()
        sparse = compute_links(g, method="sparse").to_dense()
        assert np.array_equal(dense, sparse)

    def test_invalid_method(self):
        g = graph_from_edges(2, [])
        with pytest.raises(ValueError, match="unknown method"):
            compute_links(g, method="quantum")

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_figure4_equals_matrix_square(self, graph):
        assert np.array_equal(
            sparse_link_table(graph).to_dense(), dense_link_matrix(graph)
        )

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_links_bounded_by_min_degree(self, graph):
        links = dense_link_matrix(graph)
        degrees = graph.degrees()
        for i in range(graph.n):
            for j in range(graph.n):
                if i != j:
                    assert links[i, j] <= min(degrees[i], degrees[j])

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_n=10))
    def test_space_bound_of_section_4_5(self, graph):
        """Section 4.5: "a point i can have links to at most
        min{n, m_m m_i} other points" -- the storage bound for the
        sparse link table."""
        table = sparse_link_table(graph)
        degrees = graph.degrees()
        mm = int(degrees.max()) if graph.n else 0
        for i in range(graph.n):
            partners = len(table.row(i))
            assert partners <= min(graph.n, mm * int(degrees[i])), i
        assert table.nnz_pairs() <= min(
            graph.n * graph.n, mm * int(degrees.sum())
        )


def transaction_sets():
    """Random baskets, plus the degenerate graphs: n = 0, n = 1, every
    point isolated (disjoint baskets), and complete (identical ones)."""
    basket = st.frozensets(st.integers(0, 7), min_size=1, max_size=4)
    return st.one_of(
        st.just([]),
        basket.map(lambda b: [b]),
        st.lists(basket, max_size=14),
        st.integers(0, 10).map(lambda k: [frozenset({i}) for i in range(k)]),
        st.integers(0, 10).map(lambda k: [frozenset({0, 1})] * k),
    )


class TestProducerIdentity:
    @settings(max_examples=60, deadline=None)
    @given(transaction_sets(), st.sampled_from([0.3, 0.5, 0.75]))
    def test_every_producer_emits_the_oracle_table(self, baskets, theta):
        points = TransactionDataset([Transaction(b) for b in baskets])
        graph = compute_neighbor_graph(points, theta, method="vectorized")
        oracle = dense_link_matrix(graph)
        n = graph.n
        listed = NeighborGraph.from_neighbor_lists(graph.neighbor_lists())
        tables = {
            f"blocked:{rows}": blocked_link_table(graph, block_rows=rows)
            for rows in (1, 7, max(n, 1))
        }
        tables["from_dense"] = LinkTable.from_dense(oracle)
        tables["fused"] = fused_neighbor_links(points, theta).links
        for threads, rows in ((2, 1), (3, 4)):
            with forced_threads(threads):
                tables[f"fused:{threads}x{rows}"] = fused_neighbor_links(
                    points, theta, block_size=rows
                ).links
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_NATIVE", "0")
            tables["spgemm"] = sparse_link_table(graph)
            tables["spgemm:lists"] = sparse_link_table(listed)
            mp.delenv("REPRO_NATIVE")
            if get_kernels() is not None:
                tables["rows:cext"] = sparse_link_table(graph)
                tables["rows:cext:lists"] = sparse_link_table(listed)
                tables["native"] = native_neighbor_links(points, theta).links
                for threads, rows in ((2, 1), (3, 4)):
                    with forced_threads(threads):
                        tables[f"native:{threads}x{rows}"] = native_neighbor_links(
                            points, theta, block_size=rows
                        ).links
        for name, table in tables.items():
            assert table.n == n, name
            assert table.codes.dtype == np.int64, name
            assert np.all(np.diff(table.codes) > 0), name
            lo, hi = np.divmod(table.codes, max(n, 1))
            assert np.all(lo < hi), name
            assert np.array_equal(table.to_dense(), oracle), name
            if name.startswith(("spgemm", "rows")):
                assert name.startswith(table.producer), name

        table = tables["blocked:7"]
        for i in range(n):
            partners = np.flatnonzero(oracle[i])
            assert list(table.row(i).items()) == list(
                zip(partners.tolist(), oracle[i, partners].tolist())
            )
            for j in range(n):
                if i != j:
                    assert table.get(i, j) == oracle[i, j]
        kept = np.flatnonzero(graph.degrees() > 0)
        assert np.array_equal(
            table.subset(kept).to_dense(),
            dense_link_matrix(graph.subgraph(kept)),
        )


def csr_of(adjacency):
    """The ascending neighbor lists of a bool adjacency, as CSR."""
    n = adjacency.shape[0]
    rows, indices = np.divmod(np.flatnonzero(adjacency), max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


@st.composite
def row_kernel_graphs(draw):
    """Symmetric graphs for the row kernel: random ones up to n = 40
    (empty rows, isolated points, sparse rows that sort their touched
    columns and dense rows that scan them), n in {0, 1, 2}, complete
    graphs, and hub-and-chain graphs whose later rows' cursors skip
    several entries at once."""
    kind = draw(st.sampled_from(["random", "tiny", "complete", "skips"]))
    if kind == "tiny":
        n = draw(st.integers(0, 2))
        adj = np.zeros((n, n), dtype=bool)
        if n == 2 and draw(st.booleans()):
            adj[0, 1] = adj[1, 0] = True
    elif kind == "complete":
        n = draw(st.integers(1, 24))
        adj = ~np.eye(n, dtype=bool)
    elif kind == "skips":
        # points 0..h-1 all link to every point >= h, which chain up:
        # row i >= h skips the h hubs, then reaches the chain's tail
        h = draw(st.integers(1, 5))
        n = h + draw(st.integers(2, 20))
        adj = np.zeros((n, n), dtype=bool)
        adj[:h, h:] = True
        adj[np.arange(h, n - 1), np.arange(h + 1, n)] = True
        adj |= adj.T
    else:
        n = draw(st.integers(3, 40))
        density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        adj = np.triu(rng.random((n, n)) < density, 1)
        adj |= adj.T
        adj[draw(st.integers(0, n - 1))] = False  # one isolated point
        adj[:, draw(st.integers(0, n - 1))] = False
        adj &= adj.T
    return NeighborGraph(adj)


class TestRowLinks:
    """``row_link_table`` -- C ``link_rows`` or scipy SpGEMM -- equals the oracle."""

    @staticmethod
    @contextmanager
    def on(tier):
        """Run with the C tier on (``REPRO_NATIVE`` unset) or off (``=0``)."""
        with mock.patch.dict(os.environ):
            if tier == "numpy":
                os.environ["REPRO_NATIVE"] = "0"
            else:
                os.environ.pop("REPRO_NATIVE", None)
                if get_kernels() is None:
                    pytest.skip("C tier unavailable")
            yield

    @pytest.mark.parametrize("tier", ["cext", "numpy"])
    @settings(max_examples=120, deadline=None)
    @given(graph=row_kernel_graphs(), chunk=st.sampled_from([1, 7, 1 << 20]))
    def test_rows_equal_the_oracle(self, tier, graph, chunk):
        oracle = LinkTable.from_dense(dense_link_matrix(graph))
        # small output chunks make the C kernel resume mid-graph
        with self.on(tier), mock.patch.object(cext, "_LINK_CHUNK", chunk):
            table = row_link_table(*csr_of(graph.adjacency), graph.n)
            gated = {
                budget: neighbor_list_links(
                    *csr_of(graph.adjacency), graph.n, budget
                )
                for budget in (-1, square_link_bytes(graph.n))
            }
            square = square_pays(graph.degrees(), graph.n)
        assert table.producer == ("rows:cext" if tier == "cext" else "spgemm")
        assert table.n == graph.n
        assert table.codes.dtype == oracle.codes.dtype == np.int64
        assert table.counts.dtype == oracle.counts.dtype == np.int64
        assert np.array_equal(table.codes, oracle.codes)
        assert np.array_equal(table.counts, oracle.counts)
        # either side of the square gate, every producer agrees
        for budget, table in gated.items():
            assert np.array_equal(table.codes, oracle.codes)
            assert np.array_equal(table.counts, oracle.counts)
            assert (table.producer == "dense-blocks") == (budget >= 0 and square)

    def test_numpy_tier_without_scipy_counts_pairs(self):
        graph = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])

        def no_scipy(*args):
            raise ImportError("No module named 'scipy'")

        with self.on("numpy"), mock.patch(
            "repro.core.links._spgemm_pairs", no_scipy
        ):
            table = row_link_table(*csr_of(graph.adjacency), graph.n)
        oracle = LinkTable.from_dense(dense_link_matrix(graph))
        assert table.producer == "pair-count:numpy"
        assert np.array_equal(table.codes, oracle.codes)
        assert np.array_equal(table.counts, oracle.counts)

    @pytest.mark.parametrize("tier", ["cext", "numpy"])
    def test_square_gate_is_per_tier(self, tier):
        n = 100
        work = SQUARE_LINK_WORK[tier] * n**3
        below = np.full(n, np.sqrt(0.99 * work / n))
        above = np.full(n, np.sqrt(1.01 * work / n))
        with self.on(tier):
            assert link_tier() == tier
            assert not square_pays(below, n)
            assert square_pays(above, n)


@pytest.mark.skipif(get_kernels() is None, reason="C tier unavailable")
def test_row_kernel_memory_is_n_plus_pairs():
    """A native link count past the budget allocates O(n + pairs).

    Two 300-point cliques: 26.7M Figure 4 pair increments (427 MB at
    16 bytes each, what counting every increment as a code would take)
    but only 89,700 linked pairs.  Peak RSS may grow by a few MB of
    output, never by anything near the increment count.
    """
    script = """
import resource
import numpy as np
from repro.core.links import neighbor_list_links
s, n = 300, 600
lists = [np.setdiff1d(np.arange(c * s, c * s + s), [i])
         for c in range(2) for i in range(c * s, c * s + s)]
indptr = np.zeros(n + 1, dtype=np.int64)
np.cumsum([len(x) for x in lists], out=indptr[1:])
indices = np.concatenate(lists).astype(np.int32)
lens = np.diff(indptr)
increments = int((lens * (lens - 1) // 2).sum())
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
table = neighbor_list_links(indptr, indices, n, memory_budget=1)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(increments, table.nnz_pairs(), table.producer, (after - before) * 1024)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env=env,
    ).stdout.split()
    increments, pairs, producer, growth = int(out[0]), int(out[1]), out[2], int(out[3])
    assert increments > 26_000_000 and pairs == 2 * 300 * 299 // 2
    assert producer == "rows:cext"
    assert growth < 32 * 2**20  # 16 B per increment would be 427 MB


def producer_of(tracer):
    (links_span,) = [
        span for root in tracer.spans() for span in root.iter_spans()
        if span.name == "links"
    ]
    return links_span.attrs["producer"]


class TestLinkProducerRecorded:
    """The links span and ``backends["links"]`` name the kernel that ran."""

    def baskets(self, per, seed=3, background=()):
        rng = np.random.default_rng(seed)
        return TransactionDataset([
            Transaction([
                *rng.choice(np.arange(c * 12, c * 12 + 12), 6, replace=False).tolist(),
                *background,
            ])
            for c in range(3)
            for _ in range(per)
        ])

    @pytest.mark.parametrize("tier", ["cext", "numpy"])
    def test_pair_count_tier(self, monkeypatch, tier):
        if tier == "numpy":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        else:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            if get_kernels() is None:
                pytest.skip("C tier unavailable")
        # 20 triples of identical baskets: every point has 2 neighbors,
        # so sum m^2 stays far under the square's n^3 work; the 6 items
        # every basket holds put S over the gate, so the dense route runs
        points = TransactionDataset([
            Transaction([*range(100, 106), *range(6 * g, 6 * g + 6)])
            for g in range(20)
            for _ in range(3)
        ])
        assert plan_fit(points, 0.5).route == "dense"
        tracer = Tracer()
        result = RockPipeline(k=20, theta=0.5, seed=1).fit(points, tracer=tracer)
        counted = "rows:cext" if tier == "cext" else "spgemm"
        assert result.backends["links"] == counted
        assert producer_of(tracer) == counted

    def test_dense_blocks(self):
        # identical baskets: a complete graph, sum m^2 = n (n - 1)^2
        points = TransactionDataset([Transaction([0, 1, 2])] * 12)
        tracer = Tracer()
        result = RockPipeline(k=1, theta=0.5, seed=1).fit(points, tracer=tracer)
        assert result.backends["links"] == "dense-blocks"
        assert producer_of(tracer) == "dense-blocks"

    @pytest.mark.parametrize("route", ["fused", "native"])
    def test_fused_and_native(self, monkeypatch, route):
        # past the memory budget: native, or fused under REPRO_NATIVE=0
        if route == "fused":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        else:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            if get_kernels() is None:
                pytest.skip("C tier unavailable")
        expected = "fused" if route == "fused" else "native:cext"
        # the kernels count links by the compute_links rule, so the
        # links backend names the link kernel: here the row count
        counted = "spgemm" if route == "fused" else "rows:cext"
        tracer = Tracer()
        result = RockPipeline(k=3, theta=0.5, memory_budget=1, seed=1).fit(
            self.baskets(per=8), tracer=tracer
        )
        assert result.backends["fit"] == expected
        assert result.backends["links"] == counted
        assert producer_of(tracer) == counted


class TestLinkRuleSharedByProducers:
    """The one-pass kernels count links by the rule ``compute_links`` uses."""

    def clumps(self):
        # 4 clumps of 20 identical 2-item baskets: S is about 0.47 n^2 / 2
        # (shared-item scoring) while sum m^2 = 80 * 19^2 is past the
        # square's n^3 work on either tier
        return TransactionDataset(
            [Transaction({2 * c, 2 * c + 1}) for c in range(4) for _ in range(20)]
        )

    @pytest.mark.parametrize("route", ["fused", "native"])
    def test_gate_routed_fit_squares(self, monkeypatch, route):
        if route == "fused":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        else:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            if get_kernels() is None:
                pytest.skip("C tier unavailable")
        points = self.clumps()
        plan = plan_fit(points, 0.5)
        assert plan.route == route
        degrees = compute_neighbor_graph(points, 0.5).degrees()
        assert degrees @ degrees >= SQUARE_LINK_WORK[link_tier()] * len(points) ** 3
        tracer = Tracer()
        links = run_fit_plan(plan, points, 0.5, tracer=tracer).links
        reference = run_fit_plan(
            FitPlan("dense", "dense", plan.memory_budget, "reference"),
            points, 0.5, tracer=Tracer(),
        ).links
        assert links.producer == reference.producer == "dense-blocks"
        assert producer_of(tracer) == "dense-blocks"
        assert np.array_equal(links.codes, reference.codes)
        assert np.array_equal(links.counts, reference.counts)

    @pytest.mark.parametrize("route", ["fused", "native"])
    def test_square_needs_the_budget(self, route):
        if route == "native" and get_kernels() is None:
            pytest.skip("C tier unavailable")
        kernel = native_neighbor_links if route == "native" else fused_neighbor_links
        points = self.clumps()
        n = len(points)
        square = kernel(points, 0.5, memory_budget=square_link_bytes(n))
        counted = kernel(points, 0.5, memory_budget=square_link_bytes(n) - 1)
        assert square.links.producer == "dense-blocks"
        assert counted.links.producer == (
            "spgemm" if get_kernels() is None else "rows:cext"
        )
        assert np.array_equal(square.links.codes, counted.links.codes)
        assert np.array_equal(square.links.counts, counted.links.counts)


class TestPathLinks:
    def test_length_2_is_dense_links(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert np.array_equal(path_link_matrix(g, 2), dense_link_matrix(g))

    def test_unsupported_length(self):
        g = graph_from_edges(2, [])
        with pytest.raises(ValueError):
            path_link_matrix(g, 4)

    def brute_force_paths3(self, graph):
        adj = graph.adjacency
        n = graph.n
        counts = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for a in range(n):
                    if a in (i, j) or not adj[i, a]:
                        continue
                    for b in range(n):
                        if b in (i, j, a) or not adj[a, b] or not adj[b, j]:
                            continue
                        counts[i, j] += 1
        return counts

    def test_length_3_path_count_on_square(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert np.array_equal(path_link_matrix(g, 3), self.brute_force_paths3(g))

    @settings(max_examples=30, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_length_3_matches_bruteforce(self, graph):
        assert np.array_equal(
            path_link_matrix(graph, 3), self.brute_force_paths3(graph)
        )
