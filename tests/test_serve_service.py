"""Tests for the ClusteringService facade and the engine's serve metrics.

The engine records ``serve.*`` instruments straight into a
:class:`~repro.obs.registry.MetricsRegistry`; these tests read them
back from the registry snapshot and pin their Prometheus rendering.
"""

import itertools
import types

import pytest

import repro.serve.engine as engine_mod
from repro.core.pipeline import RockPipeline
from repro.core.similarity import SimilarityTable
from repro.data.io import write_transactions
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.export import metrics_to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve import AssignmentEngine, ClusteringService
from repro.serve.engine import BATCH_SIZE_BUCKETS
from tests.test_serve_engine import CLUSTER_A, CLUSTER_B, make_model


@pytest.fixture
def dataset():
    return TransactionDataset(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}, {8, 10, 11}] * 20
    )


@pytest.fixture
def model_path(dataset, tmp_path):
    _, model = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0).fit_model(dataset)
    path = tmp_path / "model.json"
    model.save(path)
    return path


class TestClusteringService:
    def test_from_file_and_assign(self, model_path, dataset):
        service = ClusteringService.from_file(model_path)
        assert service.n_clusters == 2
        label = service.assign(dataset[0])
        assert label in (0, 1)
        labels = service.assign_batch(list(dataset))
        assert labels.shape == (len(dataset),)

    def test_assign_file_round_trip(self, model_path, dataset, tmp_path):
        data_path = tmp_path / "held.txt"
        write_transactions(list(dataset), data_path)
        out_path = tmp_path / "labels.txt"
        service = ClusteringService.from_file(model_path)
        labels = service.assign_file(data_path, output=out_path)
        written = [int(l) for l in out_path.read_text().split()]
        assert written == labels.tolist()
        assert service.assign_file(data_path, input_format="transactions").tolist() \
            == labels.tolist()

    def test_assign_file_unknown_format(self, model_path, tmp_path):
        service = ClusteringService.from_file(model_path)
        with pytest.raises(ValueError, match="unknown input format"):
            service.assign_file(tmp_path / "x.txt", input_format="parquet")

    def test_describe(self, model_path):
        service = ClusteringService.from_file(model_path)
        info = service.describe()
        assert info["n_clusters"] == 2
        assert info["vectorized"] is True
        assert len(info["labeling_set_sizes"]) == 2
        assert info["metadata"]["k"] == 2

    def test_metrics_flow_through(self, model_path, dataset):
        service = ClusteringService.from_file(model_path)
        service.assign_batch(list(dataset)[:10])
        service.assign(dataset[0])
        counters = service.metrics_snapshot()["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.points"] == 11

    def test_records_into_a_shared_registry(self, model_path, dataset):
        registry = MetricsRegistry()
        service = ClusteringService.from_file(model_path, registry=registry)
        assert service.registry is registry
        assert service.engine.registry is registry
        service.assign_batch(list(dataset)[:4])
        assert registry.snapshot()["counters"]["serve.points"] == 4


IN_A, IN_B, OUTLIER = Transaction({1, 2, 3}), Transaction({7, 8, 9}), Transaction({99})


def fallback_model():
    """A custom-similarity model: no index, so the engine's fallback tier."""
    table = SimilarityTable({("p", "a1"): 0.9}, key=lambda p: getattr(p, "name", p))
    return make_model([["a1"], ["b1"]], theta=0.5, similarity=table)


class Unhashable:
    __hash__ = None
    name = "q"


@pytest.fixture
def fake_clock(monkeypatch):
    """Every engine ``perf_counter`` read advances 0.25 s (exact in binary)."""
    ticks = itertools.count()
    monkeypatch.setattr(
        engine_mod, "time",
        types.SimpleNamespace(perf_counter=lambda: next(ticks) * 0.25),
    )


class TestServeMetrics:
    def test_snapshot_shape(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        engine.assign_batch([IN_A, IN_B])  # 2 misses
        engine.assign_batch([IN_A, IN_B, IN_A, OUTLIER, Transaction({50})])
        snap = engine.registry.snapshot()
        counters = snap["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.points"] == 7
        assert counters["serve.outliers"] == 2
        assert counters["serve.cache.hits"] == 3
        assert counters["serve.cache.misses"] == 4
        assert counters["serve.cache.uncacheable"] == 0
        batch = snap["histograms"]["serve.batch_size"]
        assert batch["edges"] == [float(edge) for edge in BATCH_SIZE_BUCKETS]
        assert batch["count"] == 2 and batch["sum"] == 7
        assert snap["histograms"]["serve.latency.assign_batch"]["count"] == 2

    def test_bucketing(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        for n in (1, 2, 100, 10_000):
            engine.assign_batch([IN_A] * n)
        batch = engine.registry.histogram("serve.batch_size")
        assert batch.labeled_buckets() == {
            "<=1": 1, "<=8": 1, "<=64": 0, "<=512": 1, "<=4096": 0,
            f">{BATCH_SIZE_BUCKETS[-1]}": 1,
        }

    def test_empty_snapshot(self):
        snap = AssignmentEngine(make_model([CLUSTER_A])).registry.snapshot()
        assert snap["counters"]["serve.requests"] == 0
        assert snap["counters"]["serve.cache.hits"] == 0
        assert snap["histograms"]["serve.batch_size"]["count"] == 0
        assert snap["histograms"]["serve.latency.assign_batch"] == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
        }

    def test_fallback_tier_records_assign_fallback_latency(self):
        engine = AssignmentEngine(fallback_model())
        assert engine.assign_backend == "fallback"
        engine.assign_batch(["p", Unhashable(), Unhashable()])
        snap = engine.registry.snapshot()
        assert snap["counters"]["serve.cache.misses"] == 1  # "p" is a real lookup
        assert snap["counters"]["serve.cache.uncacheable"] == 2
        assert snap["histograms"]["serve.latency.assign_fallback"]["count"] == 1
        assert "serve.latency.assign_batch" not in snap["histograms"]

    def test_merge_is_additive(self, fake_clock):
        a = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), cache_size=0)
        a.assign_batch([IN_A] * 5)
        b = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        b.assign_batch([IN_A, IN_B, OUTLIER])
        b.assign_batch([IN_A] * 100)

        a.registry.merge(b.registry.snapshot())
        snap = a.registry.snapshot()
        counters = snap["counters"]
        assert counters["serve.requests"] == 3
        assert counters["serve.points"] == 108
        assert counters["serve.outliers"] == 1
        assert counters["serve.cache.hits"] == 100
        assert counters["serve.cache.misses"] == 3
        assert counters["serve.cache.uncacheable"] == 5
        assert snap["histograms"]["serve.batch_size"]["bucket_counts"] == [
            0, 2, 0, 1, 0, 0,
        ]
        latency = snap["histograms"]["serve.latency.assign_batch"]
        assert latency["count"] == 3
        assert latency["sum"] == 0.75

    def test_merge_empty_snapshot_is_noop(self, fake_clock):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        engine.assign_batch([IN_A])
        before = engine.registry.snapshot()
        empty = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        engine.registry.merge(empty.registry.snapshot())
        after = engine.registry.snapshot()
        assert after == before
        # an empty latency snapshot must not clobber an existing min
        assert after["histograms"]["serve.latency.assign_batch"]["min"] == 0.25


# the serve.* lines (minus the tier-dependent serve.assign.* families)
# of metrics_to_prometheus after the assign_batch sequence below: the
# exposition /metrics scrapers and perfbench read, which must not move
PINNED_SERVE_TEXT = """\
# HELP rock_serve_cache_hits_total serve.cache.hits
# TYPE rock_serve_cache_hits_total counter
rock_serve_cache_hits_total 1
# HELP rock_serve_cache_misses_total serve.cache.misses
# TYPE rock_serve_cache_misses_total counter
rock_serve_cache_misses_total 14
# HELP rock_serve_cache_uncacheable_total serve.cache.uncacheable
# TYPE rock_serve_cache_uncacheable_total counter
rock_serve_cache_uncacheable_total 10
# HELP rock_serve_outliers_total serve.outliers
# TYPE rock_serve_outliers_total counter
rock_serve_outliers_total 54
# HELP rock_serve_points_total serve.points
# TYPE rock_serve_points_total counter
rock_serve_points_total 119
# HELP rock_serve_requests_total serve.requests
# TYPE rock_serve_requests_total counter
rock_serve_requests_total 7
# HELP rock_serve_batch_size serve.batch_size
# TYPE rock_serve_batch_size histogram
rock_serve_batch_size_bucket{le="1.0"} 2
rock_serve_batch_size_bucket{le="8.0"} 5
rock_serve_batch_size_bucket{le="64.0"} 6
rock_serve_batch_size_bucket{le="512.0"} 7
rock_serve_batch_size_bucket{le="4096.0"} 7
rock_serve_batch_size_bucket{le="+Inf"} 7
rock_serve_batch_size_sum 119.0
rock_serve_batch_size_count 7
# HELP rock_serve_latency_assign_batch serve.latency.assign_batch
# TYPE rock_serve_latency_assign_batch histogram
rock_serve_latency_assign_batch_bucket{le="+Inf"} 6
rock_serve_latency_assign_batch_sum 1.5
rock_serve_latency_assign_batch_count 6
# HELP rock_serve_latency_assign_fallback serve.latency.assign_fallback
# TYPE rock_serve_latency_assign_fallback histogram
rock_serve_latency_assign_fallback_bucket{le="+Inf"} 1
rock_serve_latency_assign_fallback_sum 0.25
rock_serve_latency_assign_fallback_count 1
"""


def test_serve_prometheus_text_is_pinned(fake_clock):
    """Three engines on one registry (LRU, cacheless, fallback tier)."""
    registry = MetricsRegistry()
    lru = AssignmentEngine(
        make_model([CLUSTER_A, CLUSTER_B]), cache_size=2, registry=registry
    )
    nocache = AssignmentEngine(
        make_model([CLUSTER_A, CLUSTER_B]), cache_size=0, registry=registry
    )
    fallback = AssignmentEngine(fallback_model(), registry=registry)
    assert lru.assign_batch([IN_A, IN_A, IN_B]).tolist() == [0, 0, 1]
    assert lru.assign_batch([IN_A]).tolist() == [0]
    assert lru.assign_batch([OUTLIER] * 3).tolist() == [-1] * 3
    lru.assign_batch([Transaction({i, i + 1}) for i in range(10)] * 10)
    assert lru.assign_batch([]).tolist() == []
    assert nocache.assign_batch([IN_A] * 5 + [IN_B] * 4).tolist() == [0] * 5 + [1] * 4
    assert fallback.assign_batch(["p", Unhashable(), "p"]).tolist() == [0, -1, 0]

    text = metrics_to_prometheus(registry.snapshot())
    lines = [
        line for line in text.splitlines()
        if "rock_serve_" in line and "rock_serve_assign_" not in line
    ]
    assert "\n".join(lines) + "\n" == PINNED_SERVE_TEXT
