"""The fused fit kernel and its worker pool vs the dense path.

The multi-worker kernels are only admissible as pure optimisations:
identical :class:`NeighborGraph`, identical :class:`LinkTable`,
identical final clusters for every input and worker count, with
order-preserving (hence byte-deterministic) merges.  The hypothesis
properties drive randomized baskets and categorical records through
every path at tiny block/chunk sizes so each run exercises multi-block
stitching and multi-chunk merging.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import LinkTable, compute_links
from repro.core.neighbors import (
    NeighborGraph,
    SparseTransactionScorer,
    build_block_scorer,
    compute_neighbor_graph,
)
from repro.core.pipeline import FIT_MODES, RockPipeline
from repro.core.rock import rock
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.parallel import (
    fused_neighbor_links,
    merge_pair_counts,
    pair_link_counts,
)
from repro.parallel.pool import (
    default_workers,
    imap_chunked,
    resolve_workers,
)

THETAS = [0.0, 0.25, 0.5, 0.75, 1.0]

item_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=6),
    min_size=1,
    max_size=40,
)


def graphs_equal(a: NeighborGraph, b: NeighborGraph) -> bool:
    if a.n != b.n:
        return False
    return all(
        np.array_equal(la, lb)
        for la, lb in zip(a.neighbor_lists(), b.neighbor_lists())
    )


def tables_equal(a: LinkTable, b: LinkTable) -> bool:
    if a.n != b.n:
        return False
    return sorted(a.pairs()) == sorted(b.pairs())


def make_baskets(n: int, vocab: int = 40, seed: int = 0) -> TransactionDataset:
    rng = np.random.default_rng(seed)
    return TransactionDataset([
        Transaction(frozenset(
            map(int, rng.choice(vocab, size=rng.integers(1, 8), replace=False))
        ))
        for _ in range(n)
    ])


# -- hypothesis equivalence: every kernel, every path -------------------------


@settings(max_examples=50, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 2, 3, 7, 64]),
    overlap=st.booleans(),
    workers=st.sampled_from([1, 3]),
)
def test_parallel_graph_equals_dense_and_blocked(
    sets, theta, block_size, overlap, workers
):
    # fanned-out blocks equal the dense graph and the serial block loop
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    runs = [
        fused_neighbor_links(
            dataset, theta, similarity=similarity, workers=count,
            block_size=block_size, keep_graph=True,
        )
        for count in (1, workers)
    ]
    serial, parallel = (run.graph for run in runs)
    assert graphs_equal(parallel, dense)
    assert graphs_equal(parallel, serial)
    assert not parallel.has_dense


@settings(max_examples=50, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 3, 64]),
    workers=st.sampled_from([1, 3]),
)
def test_fused_links_equal_dense_and_sparse_paths(sets, theta, block_size, workers):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    dense = compute_neighbor_graph(dataset, theta, method="vectorized")
    expected_dense = compute_links(dense, method="dense")
    expected_sparse = compute_links(dense, method="sparse")
    fused = fused_neighbor_links(
        dataset, theta, workers=workers, block_size=block_size, keep_graph=True,
    )
    assert tables_equal(fused.links, expected_dense)
    assert tables_equal(fused.links, expected_sparse)
    assert graphs_equal(fused.graph, dense)
    assert np.array_equal(fused.degrees, dense.degrees())


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", None]),
            st.sampled_from(["x", "y", None]),
        ),
        min_size=2,
        max_size=25,
    ),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
    missing_aware=st.booleans(),
)
def test_parallel_graph_on_missing_aware_records(rows, theta, missing_aware):
    # categorical data under missing-aware Jaccard, or plain Jaccard
    # over the A.v encoding
    schema = CategoricalSchema(("p", "q"))
    dataset = CategoricalDataset(
        schema, [CategoricalRecord(schema, row) for row in rows]
    )
    similarity = MissingAwareJaccard() if missing_aware else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    fused = fused_neighbor_links(
        dataset, theta, similarity=similarity, workers=3,
        block_size=2, keep_graph=True,
    )
    assert graphs_equal(fused.graph, dense)
    assert tables_equal(fused.links, compute_links(dense, method="sparse"))


# -- determinism: identical bytes across repeated multi-worker runs ----------


def test_workers4_runs_are_byte_identical():
    dataset = make_baskets(400)
    graphs = [
        fused_neighbor_links(
            dataset, 0.4, workers=4, block_size=37, keep_graph=True
        ).graph
        for _ in range(2)
    ]
    first, second = (
        [lst.tobytes() for lst in g.neighbor_lists()] for g in graphs
    )
    assert first == second

    fits = [
        RockPipeline(
            k=5, theta=0.4, seed=3, memory_budget=budget, workers=4
        ).fit(dataset, label_remaining=False)
        for budget in (1, 1, None, None)
    ]
    labels = [fit.labels.tobytes() for fit in fits]
    assert labels[0] == labels[1] == labels[2] == labels[3]


def test_fused_merge_is_submission_ordered():
    # degrees must line up with point order even when later blocks are
    # cheaper than earlier ones (completion order != submission order)
    dataset = make_baskets(300)
    serial = fused_neighbor_links(dataset, 0.4, workers=1, block_size=17)
    parallel = fused_neighbor_links(dataset, 0.4, workers=4, block_size=17)
    assert np.array_equal(serial.degrees, parallel.degrees)
    assert tables_equal(serial.links, parallel.links)


# -- pool layer ---------------------------------------------------------------


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers("auto") == default_workers()
    with pytest.raises(ValueError):
        resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers("many")


def test_default_workers_bounded():
    assert 1 <= default_workers() <= 8


def test_imap_chunked_serial_runs_initializer_in_process():
    state = {}
    results = list(
        imap_chunked(
            lambda x: x * state["factor"],
            [1, 2, 3],
            workers=1,
            initializer=lambda f: state.__setitem__("factor", f),
            initargs=(10,),
        )
    )
    assert results == [10, 20, 30]


# -- pair-count plumbing ------------------------------------------------------


def test_pair_link_counts_and_merge():
    lists = [np.array([1, 3, 4]), np.array([3, 4]), np.array([], dtype=np.int64)]
    codes, counts = pair_link_counts(lists, n=5)
    # pairs: (1,3), (1,4), (3,4) from the first list; (3,4) again
    assert codes.tolist() == [1 * 5 + 3, 1 * 5 + 4, 3 * 5 + 4]
    assert counts.tolist() == [1, 1, 2]

    merged = merge_pair_counts([
        (codes, counts),
        pair_link_counts([np.array([3, 4])], n=5),
    ])
    assert merged[0].tolist() == [8, 9, 19]
    assert merged[1].tolist() == [1, 1, 3]
    empty = merge_pair_counts([])
    assert empty[0].size == 0 and empty[1].size == 0


def test_link_table_from_pair_counts_round_trip():
    dataset = make_baskets(60)
    graph = compute_neighbor_graph(dataset, 0.3, method="vectorized")
    expected = compute_links(graph, method="sparse")
    codes, counts = pair_link_counts(graph.neighbor_lists(), graph.n)
    rebuilt = LinkTable.from_pair_counts(graph.n, codes, counts)
    assert tables_equal(rebuilt, expected)
    with pytest.raises(ValueError):
        LinkTable.from_pair_counts(3, np.array([2 * 3 + 1]), np.array([1]))


def test_link_table_subset_equals_subgraph_links():
    dataset = make_baskets(80, vocab=120, seed=2)
    graph = compute_neighbor_graph(dataset, 0.3, method="vectorized")
    links = compute_links(graph, method="sparse")
    kept = np.flatnonzero(graph.degrees() >= 1)
    assert len(kept) < graph.n  # the seed produces isolated points
    expected = compute_links(graph.subgraph(kept), method="sparse")
    assert tables_equal(links.subset(kept), expected)


# -- fallbacks and routing ----------------------------------------------------


def test_sparse_scorer_is_opt_in_for_parallel_paths():
    # the fused kernel opts in; the dense route keeps the matmul scorer
    pytest.importorskip("scipy")
    dataset = make_baskets(30)
    assert isinstance(
        build_block_scorer(dataset, prefer_sparse=True), SparseTransactionScorer
    )
    assert not isinstance(
        build_block_scorer(dataset), SparseTransactionScorer
    )


@settings(max_examples=30, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 3, 64]),
    overlap=st.booleans(),
)
def test_sparse_scorer_matches_dense_scorer(sets, theta, block_size, overlap):
    # the fused kernel defaults to the CSR scorer; its prefilter and
    # unsorted-product handling need their own equivalence property
    # against the forced-dense scorer: same graph and same fused links
    pytest.importorskip("scipy")
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense_fused, sparse_fused = (
        fused_neighbor_links(
            dataset, theta, similarity=similarity, workers=2,
            block_size=block_size, prefer_sparse=prefer, keep_graph=True,
        )
        for prefer in (False, True)
    )
    assert graphs_equal(sparse_fused.graph, dense_fused.graph)
    assert tables_equal(sparse_fused.links, dense_fused.links)
    assert np.array_equal(sparse_fused.degrees, dense_fused.degrees)


def test_fused_pipeline_with_strict_pruning_falls_back(monkeypatch):
    # min_neighbors > 1 invalidates the subset shortcut; the fused
    # route runs a second pass over the kept points and still agrees
    monkeypatch.setenv("REPRO_NATIVE", "0")
    dataset = make_baskets(200)
    base = RockPipeline(k=4, theta=0.4, seed=1, min_neighbors=3).fit(
        dataset, label_remaining=False
    )
    fused = RockPipeline(
        k=4, theta=0.4, seed=1, min_neighbors=3, memory_budget=1, workers=2
    ).fit(dataset, label_remaining=False)
    assert fused.backends["fit"] == "fused"
    assert base.outlier_indices == fused.outlier_indices
    assert np.array_equal(base.labels, fused.labels)


def test_fit_mode_validation():
    with pytest.raises(ValueError):
        RockPipeline(k=2, theta=0.5, fit_mode="warp")
    with pytest.raises(ValueError):
        rock(make_baskets(10), k=2, theta=0.5, fit_mode="warp")
    with pytest.raises(ValueError):
        RockPipeline(k=2, theta=0.5, fit_mode="fused")
    assert FIT_MODES == ("auto", "sharded")


def test_model_metadata_records_fit_mode_and_workers():
    dataset = make_baskets(120)
    pipeline = RockPipeline(
        k=4, theta=0.4, seed=0, sample_size=80, memory_budget=1, workers=2
    )
    result, model = pipeline.fit_model(dataset)
    assert model.metadata["fit_mode"] == "auto"
    assert model.metadata["workers"] == 2
    assert model.metadata["backends"]["fit"] == result.backends["fit"]


def test_cli_fit_mode_and_workers(tmp_path, capsys):
    from repro.cli import main

    lines = [
        " ".join(str(x) for x in sorted(txn.items))
        for txn in make_baskets(60, vocab=20, seed=4)
    ]
    data = tmp_path / "baskets.txt"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main([
        "fit-model", "--input", str(data), "--format", "transactions",
        "-k", "3", "--theta", "0.4", "--model", str(model_path),
        "--fit-mode", "auto", "--workers", "2", "--seed", "0",
    ]) == 0
    assert capsys.readouterr().err == ""
    from repro.serve.model import RockModel

    model = RockModel.load(model_path)
    assert model.metadata["fit_mode"] == "auto"
    assert model.metadata["workers"] == 2
    with pytest.raises(SystemExit):
        main([
            "cluster", "--input", str(data), "--format", "transactions",
            "-k", "3", "--theta", "0.4", "--workers", "nope",
        ])
