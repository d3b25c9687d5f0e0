"""repro.shard: store round-trips, sharded == auto-route identity, fallbacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RockPipeline, rock
from repro.core.encoding import transaction_csr
from repro.core.neighbors import SparseTransactionScorer
from repro.data.transactions import Transaction, TransactionDataset
from repro.datasets import small_synthetic_basket, write_basket_file
from repro.estimator import RockClusterer
from repro.shard import (
    StoreIntegrityError,
    StoreScorer,
    TransactionStore,
    plan_shards,
    shard_fit,
    shard_supported,
)
from repro.shard.planner import component_chunks

transaction_sets = st.lists(
    st.sets(st.integers(0, 15), min_size=1, max_size=6),
    min_size=2,
    max_size=25,
)


@pytest.fixture(scope="module")
def basket():
    return small_synthetic_basket(
        n_clusters=3, cluster_size=40, n_outliers=8, seed=7
    )


def _dataset(sets):
    return TransactionDataset([Transaction(s) for s in sets])


def _merge_key(result):
    """Byte-level identity of the merge history (incl. goodness)."""
    return [
        (m.left, m.right, m.merged, float(m.goodness).hex(), m.size)
        for m in result.merges
    ]


def _assert_identical(a, b):
    assert a.clusters == b.clusters
    assert a.stopped_early == b.stopped_early
    assert _merge_key(a) == _merge_key(b)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class TestTransactionStore:
    def test_round_trip(self, tmp_path, basket):
        ds = basket.transactions
        store = TransactionStore.write(tmp_path / "store", ds)
        assert len(store) == len(ds)
        assert store.n_items == ds.n_items
        assert store.nnz == sum(len(t) for t in ds)
        sizes = store.sizes()
        for i, txn in enumerate(ds):
            assert sizes[i] == len(txn)
            assert sorted(store.row_items(i)) == sorted(str(x) for x in txn)

    def test_open_and_verify(self, tmp_path, basket):
        path = tmp_path / "store"
        written = TransactionStore.write(path, basket.transactions)
        reopened = TransactionStore.open(path, verify=True)
        assert reopened.checksum == written.checksum
        assert reopened.nnz == written.nnz

    def test_tamper_detected(self, tmp_path, basket):
        path = tmp_path / "store"
        TransactionStore.write(path, basket.transactions)
        payload = bytearray((path / "items.i32").read_bytes())
        payload[0] ^= 0xFF
        (path / "items.i32").write_bytes(bytes(payload))
        with pytest.raises(StoreIntegrityError):
            TransactionStore.open(path, verify=True)
        with pytest.raises(StoreIntegrityError):
            TransactionStore.open(path).verify()

    def test_from_transactions_file_matches_in_memory(self, tmp_path):
        source = tmp_path / "txns.txt"
        write_basket_file(source, 300, n_clusters=3, seed=5)
        from repro.data.io import read_transactions

        ds = read_transactions(source)
        from_file = TransactionStore.from_transactions_file(
            source, tmp_path / "s1", chunk_rows=17
        )
        from_memory = TransactionStore.write(tmp_path / "s2", ds)
        # item codes may permute (first-seen vs sorted vocabulary) but
        # the decoded content is identical row for row
        assert len(from_file) == len(from_memory)
        assert from_file.nnz == from_memory.nnz
        for i in range(0, len(ds), 37):
            assert sorted(from_file.row_items(i)) == sorted(
                from_memory.row_items(i)
            )
        # and similarity is permutation-invariant, so fits agree
        f_theta = (1 - 0.5) / (1 + 0.5)
        a = shard_fit(store=from_file, k=3, theta=0.5, f_theta=f_theta)
        b = shard_fit(store=from_memory, k=3, theta=0.5, f_theta=f_theta)
        _assert_identical(a.result, b.result)

    def test_chunked_write_is_chunk_size_invariant(self, tmp_path, basket):
        ds = basket.transactions
        a = TransactionStore.write(tmp_path / "a", ds, chunk_rows=7)
        b = TransactionStore.write(tmp_path / "b", ds, chunk_rows=4096)
        assert a.checksum == b.checksum

    def test_scorer_matches_sparse_scorer(self, tmp_path, basket):
        ds = basket.transactions
        store = TransactionStore.write(tmp_path / "store", ds)
        reference = SparseTransactionScorer(transaction_csr(ds), overlap=False)
        sharded = StoreScorer(store)
        for start, stop in [(0, 13), (13, 60), (60, len(ds))]:
            ref_rows = reference.neighbor_rows(start, stop, 0.4)
            got_rows = sharded.neighbor_rows(start, stop, 0.4)
            for ref, got in zip(ref_rows, got_rows):
                np.testing.assert_array_equal(ref, got)


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

class TestPlanner:
    def test_blocks_cover_exactly(self):
        plan = plan_shards(100, block_rows=13)
        spans = [span for _, span in plan.block_units()]
        assert spans[0][0] == 0 and spans[-1][1] == 100
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start

    def test_component_chunks_partition(self):
        costs = np.array([5, 1, 1, 90, 2, 2, 7], dtype=np.float64)
        chunks = component_chunks(costs, max_units=3)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(costs)
        assert all(start < stop for start, stop in chunks)
        assert len(chunks) <= 3

    def test_component_chunks_empty(self):
        assert component_chunks(np.empty(0)) == []


# ---------------------------------------------------------------------------
# sharded == over-budget route (native or fused) == dense, property-tested
# ---------------------------------------------------------------------------

class TestShardedIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        transaction_sets,
        st.floats(0.1, 0.9),
        st.integers(1, 4),
        st.sampled_from([None, 3, 7, 13]),
    )
    def test_sharded_equals_fused_and_dense(self, sets, theta, k, block_rows):
        ds = _dataset(sets)
        dense = rock(ds, k=k, theta=theta)
        fused = rock(ds, k=k, theta=theta, memory_budget=1)
        sharded = rock(
            ds, k=k, theta=theta, fit_mode="sharded",
            shard_block_rows=block_rows,
        )
        _assert_identical(dense, fused)
        _assert_identical(fused, sharded)

    @pytest.mark.parametrize("workers", [None, 2, 7])
    @pytest.mark.parametrize("block_rows", [None, 7, 13])
    def test_worker_and_block_invariance(self, basket, workers, block_rows):
        # the shard's process count is shard_fit's own argument; the
        # pipeline's sharded route runs serially
        ds = basket.transactions
        fused = rock(ds, k=4, theta=0.5, memory_budget=1)
        sharded = shard_fit(
            ds, k=4, theta=0.5, f_theta=(1 - 0.5) / (1 + 0.5),
            workers=workers, block_rows=block_rows,
        )
        _assert_identical(fused, sharded.result)

    def test_fit_from_store_only(self, tmp_path, basket):
        ds = basket.transactions
        store = TransactionStore.write(tmp_path / "store", ds)
        fused = rock(ds, k=4, theta=0.5, memory_budget=1)
        sharded = shard_fit(store=store, k=4, theta=0.5, f_theta=(1 - 0.5) / (1 + 0.5))
        _assert_identical(fused, sharded.result)
        assert sharded.store_path == str(tmp_path / "store")

    def test_pipeline_identity_with_sampling_and_labeling(self, basket):
        ds = basket.transactions
        kwargs = dict(k=4, theta=0.5, sample_size=90, min_neighbors=1, seed=3)
        reference = RockPipeline(memory_budget=1, **kwargs).fit(ds)
        sharded = RockPipeline(fit_mode="sharded", **kwargs).fit(ds)
        np.testing.assert_array_equal(reference.labels, sharded.labels)
        assert sharded.backends["fit"] == "sharded"
        assert sharded.backends["merge"] == "fast"

    def test_overlap_similarity(self, basket):
        from repro.core.similarity import OverlapSimilarity

        ds = basket.transactions
        fused = rock(ds, k=4, theta=0.6, similarity=OverlapSimilarity(), memory_budget=1)
        sharded = rock(ds, k=4, theta=0.6, similarity=OverlapSimilarity(), fit_mode="sharded")
        _assert_identical(fused, sharded)


# ---------------------------------------------------------------------------
# fallback taxonomy
# ---------------------------------------------------------------------------

class TestShardedFallbacks:
    def _points(self):
        return small_synthetic_basket(
            n_clusters=2, cluster_size=25, n_outliers=4, seed=1
        ).transactions

    def test_custom_goodness_falls_back(self):
        ds = self._points()
        supported, reason = shard_supported(ds, None, lambda l, ni, nj, f: l)
        assert not supported and "goodness" in reason
        with pytest.warns(RuntimeWarning, match="sharded.*unavailable"):
            result = rock(
                ds, k=3, theta=0.4, fit_mode="sharded",
                goodness_fn=lambda l, ni, nj, f: float(l),
            )
        reference = rock(
            ds, k=3, theta=0.4, goodness_fn=lambda l, ni, nj, f: float(l)
        )
        assert result.clusters == reference.clusters

    def test_min_neighbors_above_one_falls_back(self):
        ds = self._points()
        pipeline = RockPipeline(k=3, theta=0.4, min_neighbors=3, fit_mode="sharded")
        with pytest.warns(RuntimeWarning, match="min_neighbors"):
            result = pipeline.fit(ds)
        reference = RockPipeline(k=3, theta=0.4, min_neighbors=3).fit(ds)
        np.testing.assert_array_equal(result.labels, reference.labels)

    def test_min_cluster_size_falls_back(self):
        ds = self._points()
        pipeline = RockPipeline(
            k=3, theta=0.4, min_cluster_size=3, fit_mode="sharded"
        )
        with pytest.warns(RuntimeWarning, match="weeding"):
            result = pipeline.fit(ds)
        reference = RockPipeline(k=3, theta=0.4, min_cluster_size=3).fit(ds)
        np.testing.assert_array_equal(result.labels, reference.labels)

    def test_initial_clusters_falls_back(self):
        ds = self._points()
        seed_partition = [[i] for i in range(len(ds))]
        pipeline = RockPipeline(k=3, theta=0.4, fit_mode="sharded")
        with pytest.warns(RuntimeWarning, match="initial_clusters"):
            pipeline.fit(ds, initial_clusters=seed_partition)

    def test_missing_aware_falls_back(self):
        from repro.core.similarity import MissingAwareJaccard
        from repro.datasets import generate_votes

        votes = generate_votes(seed=0).subset(range(80))
        pipeline = RockPipeline(
            k=2, theta=0.5, similarity=MissingAwareJaccard(),
            fit_mode="sharded",
        )
        with pytest.warns(RuntimeWarning, match="sharded.*unavailable"):
            result = pipeline.fit(votes)
        reference = RockPipeline(
            k=2, theta=0.5, similarity=MissingAwareJaccard()
        ).fit(votes)
        np.testing.assert_array_equal(result.labels, reference.labels)

    def test_shard_fit_rejects_unsupported_directly(self):
        ds = self._points()
        with pytest.raises(ValueError, match="built-in goodness"):
            shard_fit(
                ds, k=2, theta=0.5, f_theta=0.33,
                goodness_fn=lambda l, ni, nj, f: float(l),
            )
        with pytest.raises(ValueError, match="min_neighbors"):
            shard_fit(ds, k=2, theta=0.5, f_theta=0.33, min_neighbors=2)


# ---------------------------------------------------------------------------
# estimator + observability + host memory
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_estimator_params_round_trip(self):
        est = RockClusterer(
            n_clusters=3, theta=0.5, fit_mode="sharded", shard_block_rows=32,
            spill_dir="/tmp/spill-x", max_retries=5,
        )
        params = est.get_params()
        assert params["shard_block_rows"] == 32
        assert params["spill_dir"] == "/tmp/spill-x"
        assert params["max_retries"] == 5
        clone = RockClusterer(**params)
        assert clone.get_params() == params

    def test_estimator_fit_sharded(self, basket):
        ds = basket.transactions
        sharded = RockClusterer(n_clusters=4, theta=0.5, fit_mode="sharded").fit(ds)
        reference = RockClusterer(n_clusters=4, theta=0.5).fit(ds)
        np.testing.assert_array_equal(sharded.labels_, reference.labels_)

    def test_shard_metrics_and_spans(self, basket):
        from repro.obs import Tracer

        tracer = Tracer()
        RockPipeline(k=4, theta=0.5, fit_mode="sharded").fit(
            basket.transactions, tracer=tracer
        )
        snap = tracer.registry.snapshot()
        assert snap["counters"]["fit.shard.blocks"] >= 1
        assert snap["counters"]["fit.shard.components"] >= 1
        assert snap["gauges"]["fit.shard.block_rows"] >= 1
        assert snap["gauges"]["fit.shard.store_bytes"] > 0
        names = tracer.span_names()
        assert "neighbors" in names and "cluster" in names
        assert any(name.startswith("shard.block-") for name in names)

    def test_model_metadata_records_shard_config(self, basket):
        from repro.serve.model import model_from_result

        pipeline = RockPipeline(
            k=4, theta=0.5, fit_mode="sharded", shard_block_rows=48,
            labeling_fraction=0.5, seed=2,
        )
        result, model = pipeline.fit_model(basket.transactions)
        assert model.metadata["fit_mode"] == "sharded"
        assert model.metadata["shard_block_rows"] == 48
        assert model.metadata["max_retries"] == 2
        assert model.metadata["backends"]["fit"] == "sharded"

    def test_host_memory_in_metadata(self):
        from repro.obs import host_memory, host_metadata

        meta = host_metadata()
        assert "mem_total_bytes" in meta
        assert "mem_available_bytes" in meta
        total, available = host_memory()
        if total is not None:
            assert total > 0
            assert meta["mem_total_bytes"] == total
        if total is not None and available is not None:
            assert 0 < available <= total

    def test_resolve_memory_budget(self):
        from repro.core.neighbors import (
            DEFAULT_MEMORY_BUDGET,
            resolve_memory_budget,
        )
        from repro.obs import host_memory

        assert resolve_memory_budget(12345) == 12345
        default = resolve_memory_budget()
        _, available = host_memory()
        if available is None:
            assert default == DEFAULT_MEMORY_BUDGET
        else:
            assert (256 << 20) <= default <= (4 << 30)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestShardCli:
    def _write_input(self, tmp_path):
        from repro.data.io import write_transactions

        path = tmp_path / "txns.txt"
        basket = small_synthetic_basket(
            n_clusters=3, cluster_size=30, n_outliers=5, seed=4
        )
        write_transactions(basket.transactions, path)
        return path

    def test_cluster_sharded_matches_default(self, tmp_path, capsys):
        from repro.cli import main

        source = self._write_input(tmp_path)
        out_a = tmp_path / "a.labels"
        out_b = tmp_path / "b.labels"
        base = ["cluster", "--input", str(source), "--theta", "0.5", "-k", "4"]
        assert main(base + ["--output", str(out_a)]) == 0
        assert main(
            base
            + [
                "--output", str(out_b),
                "--fit-mode", "sharded",
                "--shard-block-rows", "16",
                "--spill-dir", str(tmp_path / "spill"),
            ]
        ) == 0
        capsys.readouterr()
        assert out_a.read_text() == out_b.read_text()

    def test_gen_data(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "big.txt"
        labels = tmp_path / "big.labels"
        code = main(
            [
                "gen-data", "--out", str(out), "-n", "500",
                "--clusters", "4", "--labels", str(labels),
                "--chunk-rows", "64", "--seed", "9",
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 500
        assert len(labels.read_text().splitlines()) == 500
        stdout = capsys.readouterr().out
        assert "500 transactions" in stdout

    def test_gen_data_deterministic_and_chunk_invariant(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_basket_file(a, 400, n_clusters=4, chunk_rows=11, seed=2)
        write_basket_file(b, 400, n_clusters=4, chunk_rows=4096, seed=2)
        assert a.read_text() == b.read_text()
