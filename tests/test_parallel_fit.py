"""The fused fit kernel and its block threads vs the dense path.

The threaded kernels are only admissible as pure optimisations:
identical :class:`NeighborGraph`, identical :class:`LinkTable`,
identical final clusters for every input and thread count, with
block-ordered (hence byte-deterministic) stitching.  The thread count
is forced through :func:`tests.threads.forced_threads` (nothing
configures it).  The hypothesis properties drive randomized baskets
and categorical records through every path at tiny block/chunk sizes
so each run exercises multi-block stitching and multi-chunk merging.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.pool as pool
from repro.core.links import LinkTable, compute_links
from repro.core.neighbors import (
    NeighborGraph,
    SparseTransactionScorer,
    build_block_scorer,
    compute_neighbor_graph,
)
import repro.core.pipeline as pipeline_module
from repro.core.pipeline import RockPipeline
from repro.core.rock import rock
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
)
from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel import fused_neighbor_links, pair_link_counts
from repro.parallel.pool import block_rows, map_blocks, thread_count
from tests.threads import THREAD_COUNTS, forced_threads

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
    threads=st.sampled_from(THREAD_COUNTS),
)
def test_parallel_graph_equals_dense_and_blocked(
    sets, theta, block_size, overlap, threads
):
    # threaded blocks equal the dense graph and the serial block loop
    dataset = TransactionDataset([Transaction(s) for s in sets])
    similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
    dense = compute_neighbor_graph(
        dataset, theta, similarity=similarity, method="vectorized"
    )
    runs = []
    for count in (1, threads):
        with forced_threads(count):
            runs.append(fused_neighbor_links(
                dataset, theta, similarity=similarity,
                block_size=block_size, keep_graph=True,
            ))
    serial, parallel = (run.graph for run in runs)
    assert graphs_equal(parallel, dense)
    assert graphs_equal(parallel, serial)
    assert not parallel.has_dense


@settings(max_examples=50, deadline=None)
@given(
    sets=item_sets,
    theta=st.sampled_from(THETAS),
    block_size=st.sampled_from([1, 3, 64]),
    threads=st.sampled_from(THREAD_COUNTS),
)
def test_fused_links_equal_dense_and_sparse_paths(sets, theta, block_size, threads):
    dataset = TransactionDataset([Transaction(s) for s in sets])
    dense = compute_neighbor_graph(dataset, theta, method="vectorized")
    expected_dense = compute_links(dense, method="dense")
    expected_sparse = compute_links(dense, method="sparse")
    with forced_threads(threads):
        fused = fused_neighbor_links(
            dataset, theta, block_size=block_size, keep_graph=True,
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
    with forced_threads(3):
        fused = fused_neighbor_links(
            dataset, theta, similarity=similarity, block_size=2,
            keep_graph=True,
        )
    assert graphs_equal(fused.graph, dense)
    assert tables_equal(fused.links, compute_links(dense, method="sparse"))


# -- determinism: identical bytes across thread counts and block sizes ------


def test_threaded_runs_are_byte_identical():
    dataset = make_baskets(400)
    graphs = []
    for threads in THREAD_COUNTS + [4]:
        for block_size in (37, 400):
            with forced_threads(threads):
                graphs.append(fused_neighbor_links(
                    dataset, 0.4, block_size=block_size, keep_graph=True
                ).graph)
    first, *rest = (
        [lst.tobytes() for lst in g.neighbor_lists()] for g in graphs
    )
    assert all(other == first for other in rest)

    # budget 1 routes past the dense path onto 16-row blocks
    labels = []
    for threads in (1, 4):
        with forced_threads(threads):
            for budget in (1, None):
                fit = RockPipeline(
                    k=5, theta=0.4, seed=3, memory_budget=budget
                ).fit(dataset, label_remaining=False)
                labels.append(fit.labels.tobytes())
    assert len(set(labels)) == 1


def test_fused_merge_is_submission_ordered():
    # degrees must line up with point order even when later blocks are
    # cheaper than earlier ones (completion order != submission order)
    dataset = make_baskets(300)
    serial = fused_neighbor_links(dataset, 0.4, block_size=300)
    with forced_threads(4):
        parallel = fused_neighbor_links(dataset, 0.4, block_size=17)
    assert np.array_equal(serial.degrees, parallel.degrees)
    assert tables_equal(serial.links, parallel.links)


# -- the block map ------------------------------------------------------------


def test_thread_count_bounded():
    assert 1 <= thread_count() <= pool.MAX_THREADS


def test_map_blocks_keeps_task_order():
    def slow_first(task):
        threading.Event().wait(0.02 if task == 0 else 0.0)
        return task * 10

    for threads in THREAD_COUNTS:
        with forced_threads(threads):
            assert map_blocks(slow_first, range(5)) == [0, 10, 20, 30, 40]
            assert map_blocks(slow_first, []) == []


def test_map_blocks_raises_the_task_error():
    def boom(task):
        if task == 2:
            raise KeyError(task)
        return task

    with forced_threads(2), pytest.raises(KeyError):
        map_blocks(boom, range(4))


class _NoThreads:
    """A stand-in executor that fails the test if a map starts one."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def test_one_block_call_starts_no_thread(monkeypatch):
    dataset = make_baskets(120)
    before = threading.active_count()
    with forced_threads(4):
        monkeypatch.setattr(pool, "ThreadPoolExecutor", _NoThreads)
        # one block: inline, whatever the thread count
        assert map_blocks(lambda t: t + 1, [1]) == [2]
        one = fused_neighbor_links(dataset, 0.4, block_size=len(dataset))
        # the default schedule keeps a fit this small in one block
        assert block_rows(len(dataset), 1 << 30) >= len(dataset)
        default = fused_neighbor_links(dataset, 0.4, memory_budget=1 << 30)
        # two blocks on four threads do start a pool
        with pytest.raises(AssertionError, match="thread pool"):
            fused_neighbor_links(dataset, 0.4, block_size=60)
    assert threading.active_count() == before
    assert tables_equal(one.links, default.links)


def test_block_schedule_gives_each_thread_several_blocks():
    # a 30,240-point fit on 2 threads: 2,048-row blocks (the floor),
    # 15 of them, not one per thread
    with forced_threads(2):
        assert block_rows(30_240, 4 << 30) == pool.MIN_BLOCK_ROWS
        # fits of 2,000 points stay one block
        assert block_rows(2_000, 256 << 20) >= 2_000
        # the budget caps concurrent blocks: 16-row floor at budget 1
        assert block_rows(30_240, 1) == 16
    with forced_threads(8):
        assert block_rows(200_000, 4 << 30) <= pool.MAX_BLOCK_ROWS


def test_block_threads_lose_no_registry_update():
    # more threads than cores and a short switch interval: every block's
    # increments of the shared registry must land
    dataset = make_baskets(300)
    registry = MetricsRegistry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_threads(8):
            for _ in range(3):
                fused_neighbor_links(dataset, 0.4, block_size=1, registry=registry)
    finally:
        sys.setswitchinterval(interval)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["fit.fused.blocks"] == 3 * 300
    assert snapshot["counters"]["fit.fused.rows"] == 3 * 300
    assert snapshot["histograms"]["fit.fused.block_seconds"]["count"] == 3 * 300


def _threaded_fit_in_child(queue):
    with forced_threads(2):
        fit = RockPipeline(k=5, theta=0.4, seed=3, memory_budget=1).fit(
            make_baskets(300), label_remaining=False
        )
    queue.put(fit.labels.tobytes())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_child_runs_a_threaded_fit_after_its_parent():
    # the parent's threaded fit leaves no executor (and no lock held by
    # a dead thread) behind for a forked child to inherit
    with forced_threads(2):
        parent = RockPipeline(k=5, theta=0.4, seed=3, memory_budget=1).fit(
            make_baskets(300), label_remaining=False
        )
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_threaded_fit_in_child, args=(queue,))
    child.start()
    try:
        child_labels = queue.get(timeout=120)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert child_labels == parent.labels.tobytes()


# -- pair-count plumbing ------------------------------------------------------


def test_pair_link_counts():
    lists = [np.array([1, 3, 4]), np.array([3, 4]), np.array([], dtype=np.int64)]
    codes, counts = pair_link_counts(lists, n=5)
    # pairs: (1,3), (1,4), (3,4) from the first list; (3,4) again
    assert codes.tolist() == [1 * 5 + 3, 1 * 5 + 4, 3 * 5 + 4]
    assert counts.tolist() == [1, 1, 2]
    empty = pair_link_counts([np.array([2])], n=5)
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
            dataset, theta, similarity=similarity,
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
    with forced_threads(2):
        fused = RockPipeline(
            k=4, theta=0.4, seed=1, min_neighbors=3, memory_budget=1
        ).fit(dataset, label_remaining=False)
    assert fused.backends["fit"] == "fused"
    assert base.outlier_indices == fused.outlier_indices
    assert np.array_equal(base.labels, fused.labels)


def test_fit_mode_validation():
    """There is one fit path: no ``fit_mode`` or sharded-fit knob is taken."""
    for knob in ("fit_mode", "shard_block_rows", "spill_dir", "max_retries"):
        with pytest.raises(TypeError, match=knob):
            RockPipeline(k=2, theta=0.5, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            rock(make_baskets(10), k=2, theta=0.5, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            pipeline_module.plan_fit(make_baskets(10), 0.5, **{knob: None})
    assert not hasattr(pipeline_module, "FIT_MODES")


def test_model_metadata_records_threads():
    dataset = make_baskets(120)
    pipeline = RockPipeline(
        k=4, theta=0.4, seed=0, sample_size=80, memory_budget=1
    )
    with forced_threads(3):
        tracer = Tracer()
        result, model = pipeline.fit_model(dataset, tracer=tracer)
    assert result.threads == 3
    assert "fit_mode" not in model.metadata
    assert model.metadata["threads"] == 3
    assert "workers" not in model.metadata
    assert model.metadata["backends"]["fit"] == result.backends["fit"]
    assert tracer.registry.snapshot()["gauges"]["fit.threads"] == 3
    assert tracer.spans()[0].attrs["threads"] == 3


def test_cli_fit_mode_and_threads(tmp_path, capsys):
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
        "--seed", "0",
    ]) == 0
    assert capsys.readouterr().err == ""
    from repro.serve.model import RockModel

    model = RockModel.load(model_path)
    assert "fit_mode" not in model.metadata
    assert model.metadata["threads"] == thread_count()
    with pytest.raises(SystemExit) as exc:
        main([
            "cluster", "--input", str(data), "--format", "transactions",
            "-k", "3", "--theta", "0.4", "--workers", "2",
        ])
    assert exc.value.code == 2
