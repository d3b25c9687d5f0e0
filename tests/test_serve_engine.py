"""Engine/labeler equivalence, the AssignmentEngine behaviours and its
serve metrics.

The acceptance bar for the serve subsystem is that the batch engine is
point-for-point identical to the §4.6 ``ClusterLabeler`` on any input,
including all-outlier batches, duplicate points and empty labeling
sets.  The property test drives randomly generated market-basket data
through both paths.  The engine records ``serve.*`` instruments straight
into a :class:`~repro.obs.registry.MetricsRegistry`; the metrics tests
read them back from the registry snapshot and pin their Prometheus
rendering.
"""

import itertools
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.engine as engine_mod
from repro.core.labeling import ClusterLabeler
from repro.core.similarity import JaccardSimilarity, SimilarityTable
from repro.data.transactions import Transaction
from repro.obs.export import metrics_to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve import AssignmentEngine, RockModel
from repro.serve.engine import BATCH_SIZE_BUCKETS

F_THETA = (1 - 0.4) / (1 + 0.4)

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4}), Transaction({2, 3, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


def make_model(labeling_sets, theta=0.4, **kwargs):
    return RockModel(
        labeling_sets=labeling_sets,
        theta=theta,
        f_theta=(1 - theta) / (1 + theta),
        **kwargs,
    )


def serve_counters(engine):
    """The engine's ``serve.*`` counters, keyed without the prefix."""
    counters = engine.registry.snapshot()["counters"]
    return {
        name[len("serve."):]: value
        for name, value in counters.items()
        if name.startswith("serve.")
    }


# -- the equivalence property ------------------------------------------------

item_sets = st.frozensets(st.integers(min_value=0, max_value=25), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    sets_a=st.lists(item_sets, min_size=1, max_size=5),
    sets_b=st.lists(item_sets, min_size=1, max_size=5),
    points=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=40), max_size=8),
        min_size=1,
        max_size=30,
    ),
    theta=st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.9, 1.0]),
)
def test_engine_agrees_with_labeler_on_random_baskets(sets_a, sets_b, points, theta):
    labeling_sets = [
        [Transaction(s) for s in sets_a],
        [Transaction(s) for s in sets_b],
    ]
    batch = [Transaction(p) for p in points]
    # the lambda forces the labeler onto the scalar similarity path, so
    # this cross-validates the engine's vectorised math against an
    # independent implementation, not against itself
    scalar = lambda a, b: JaccardSimilarity()(a, b)  # noqa: E731
    labeler = ClusterLabeler(
        labeling_sets,
        theta=theta,
        similarity=scalar,
        f=lambda _t: (1 - theta) / (1 + theta),
    )
    assert labeler.index is None
    expected = [labeler.assign(point) for point in batch]
    engine = AssignmentEngine(make_model(labeling_sets, theta=theta))
    assert engine.vectorized
    assert engine.assign_batch(batch).tolist() == expected
    # the same custom similarity puts the engine on its fallback tier
    fallback = AssignmentEngine(
        make_model(labeling_sets, theta=theta, similarity=scalar)
    )
    assert fallback.assign_backend == "fallback"
    assert fallback.assign_batch(batch).tolist() == expected


@settings(max_examples=20, deadline=None)
@given(
    points=st.lists(
        st.frozensets(st.integers(min_value=100, max_value=120), min_size=1, max_size=5),
        min_size=1,
        max_size=20,
    )
)
def test_all_outlier_batches(points):
    """Points sharing no item with any representative all label -1."""
    engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
    batch = [Transaction(p) for p in points]
    assert engine.assign_batch(batch).tolist() == [-1] * len(batch)


def test_duplicate_points_label_alike():
    engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
    point = Transaction({1, 2, 3})
    batch = [point] * 10 + [Transaction({7, 8, 9})] * 5 + [Transaction({99})] * 3
    labels = engine.assign_batch(batch)
    assert labels.tolist() == [0] * 10 + [1] * 5 + [-1] * 3
    assert engine.assign_batch(batch).tolist() == labels.tolist()
    counters = serve_counters(engine)
    assert (counters["requests"], counters["points"]) == (2, 2 * len(batch))


def test_empty_labeling_set_never_assigned():
    engine = AssignmentEngine(make_model([CLUSTER_A, []]))
    assert engine.assign(Transaction({1, 2, 3})) == 0
    assert engine.assign(Transaction({99})) == -1


class TestEngineBehaviours:
    def test_vectorized_flag_and_fallback_equivalence(self):
        table = SimilarityTable(
            {("p", "a1"): 0.9, ("p", "b1"): 0.3, ("q", "b1"): 0.8}
        )
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model)
        assert not engine.vectorized
        labeler = model.labeler()
        for point in ["p", "q", "zzz"]:
            assert engine.assign(point) == labeler.assign(point)

    def test_blocked_batches_match_unblocked(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        batch = [Transaction({i % 5, (i * 7) % 11, i % 3}) for i in range(50)]
        assert engine.assign_all(batch, batch_size=3).tolist() == \
            engine.assign_batch(batch).tolist()

    def test_assign_iter_streams_in_order(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        batch = [Transaction({1, 2, 3}), Transaction({7, 8, 9}), Transaction({42})]
        assert list(engine.assign_iter(iter(batch), batch_size=2)) == [0, 1, -1]
        assert engine.assign_all(batch).tolist() == [0, 1, -1]

    def test_assign_all_sized_and_unsized_inputs_agree(self):
        """Sized inputs pre-size the label array; generators still work.

        Regression: ``np.fromiter`` was called without ``count=`` even
        for sized inputs, growing the output by repeated reallocation.
        """
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        batch = [Transaction({1, 2, 3}), Transaction({7, 8, 9}),
                 Transaction({42})] * 7
        from_list = engine.assign_all(batch, batch_size=4)
        from_tuple = engine.assign_all(tuple(batch), batch_size=4)
        from_gen = engine.assign_all((p for p in batch), batch_size=4)
        assert from_list.tolist() == [0, 1, -1] * 7
        assert from_tuple.tolist() == from_list.tolist()
        assert from_gen.tolist() == from_list.tolist()
        assert from_list.dtype == np.int64

    def test_metrics_record_outliers_and_latency(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        engine.assign_batch([Transaction({1, 2, 3}), Transaction({99})])
        counters = serve_counters(engine)
        assert counters["requests"] == 1
        assert counters["points"] == 2
        assert counters["outliers"] == 1
        hists = engine.registry.snapshot()["histograms"]
        assert hists["serve.latency.assign_batch"]["count"] == 1
        assert engine.registry.histogram("serve.batch_size").labeled_buckets()[
            "<=8"
        ] == 1

    def test_validation(self):
        model = make_model([CLUSTER_A])
        # the engine has no knobs: no cache, and the index picks blocks
        for knob in ("cache_size", "block_size"):
            with pytest.raises(TypeError, match=knob):
                AssignmentEngine(model, **{knob: 8})
        engine = AssignmentEngine(model)
        with pytest.raises(ValueError, match="batch_size"):
            list(engine.assign_iter([], batch_size=0))

    def test_empty_batch(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        assert engine.assign_batch([]).shape == (0,)
        assert engine.assign_all([]).shape == (0,)

    def test_describe(self):
        engine = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B], metadata={"k": 2})
        )
        info = engine.describe()
        assert info["n_clusters"] == 2
        assert info["vectorized"] is True
        assert info["assign_backend"] == engine.labeler.assign_backend
        assert info["labeling_set_sizes"] == [3, 2]
        assert info["metadata"] == {"k": 2}


def test_engine_matches_labeler_on_large_mixed_batch():
    """Deterministic large-batch spot check with duplicates and outliers."""
    rng = np.random.default_rng(0)
    labeling_sets = [
        [Transaction(set(rng.choice(20, size=4, replace=False))) for _ in range(6)],
        [Transaction(set(rng.choice(np.arange(20, 40), size=4, replace=False)))
         for _ in range(6)],
    ]
    points = []
    for _ in range(300):
        kind = rng.integers(3)
        universe = [np.arange(20), np.arange(20, 40), np.arange(100, 120)][kind]
        points.append(Transaction(set(rng.choice(universe, size=3, replace=False))))
    points.extend(points[:50])  # duplicates
    labeler = ClusterLabeler(labeling_sets, theta=0.3)
    engine = AssignmentEngine(make_model(labeling_sets, theta=0.3))
    assert engine.assign_batch(points).tolist() == labeler.assign_all(points).tolist()


class TestEngineThreadSafety:
    """The HTTP server shares one engine between the event loop and
    executor threads; each thread scores with its own scratch."""

    def test_concurrent_hammer_is_correct(self):
        rng = np.random.default_rng(3)
        labeling_sets = [
            [Transaction(set(rng.choice(20, size=4, replace=False)))
             for _ in range(5)],
            [Transaction(set(rng.choice(np.arange(20, 40), size=4,
                                        replace=False))) for _ in range(5)],
        ]
        universe = [np.arange(20), np.arange(20, 40), np.arange(100, 120)]
        points = [
            Transaction(set(rng.choice(universe[rng.integers(3)], size=3,
                                       replace=False)))
            for _ in range(40)
        ]
        labeler = ClusterLabeler(labeling_sets, theta=0.3)
        expected = labeler.assign_all(points).tolist()
        engine = AssignmentEngine(make_model(labeling_sets, theta=0.3))
        errors = []
        sent = [0] * 8
        calls = [0] * 8
        barrier = threading.Barrier(8)

        def worker(seed):
            local = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(150):
                i = int(local.integers(len(points)))
                if local.integers(2):
                    got = engine.assign(points[i])
                    sent[seed] += 1
                    if got != expected[i]:
                        errors.append((i, got, expected[i]))
                else:
                    idx = local.integers(len(points), size=4).tolist()
                    got = engine.assign_batch([points[j] for j in idx])
                    sent[seed] += len(idx)
                    for j, g in zip(idx, got.tolist()):
                        if g != expected[j]:
                            errors.append((j, g, expected[j]))
                calls[seed] += 1

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == [], errors[:10]
        counters = serve_counters(engine)
        # every call and every point is counted exactly once
        assert counters["points"] == sum(sent)
        assert counters["requests"] == sum(calls) == 8 * 150


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
        engine.assign_batch([IN_A, IN_B])
        engine.assign_batch([IN_A, IN_B, IN_A, OUTLIER, Transaction({50})])
        snap = engine.registry.snapshot()
        counters = snap["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.points"] == 7
        assert counters["serve.outliers"] == 2
        assert not any(name.startswith("serve.cache.") for name in counters)
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
        assert snap["counters"]["serve.points"] == 0
        assert snap["histograms"]["serve.batch_size"]["count"] == 0
        assert snap["histograms"]["serve.latency.assign_batch"] == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
        }

    def test_fallback_tier_records_assign_fallback_latency(self):
        engine = AssignmentEngine(fallback_model())
        assert engine.assign_backend == "fallback"
        labels = engine.assign_batch(["p", Unhashable(), Unhashable()])
        assert labels.tolist() == [0, -1, -1]
        snap = engine.registry.snapshot()
        assert snap["counters"]["serve.points"] == 3
        assert snap["counters"]["serve.outliers"] == 2
        # the scalar tier scores every point/representative pair
        assert snap["counters"]["serve.assign.candidates"] == 3 * 2
        assert snap["histograms"]["serve.latency.assign_fallback"]["count"] == 1
        assert "serve.latency.assign_batch" not in snap["histograms"]

    def test_merge_is_additive(self, fake_clock):
        a = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
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
    """Two index-tier engines and a fallback one on one registry."""
    registry = MetricsRegistry()
    first = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), registry=registry)
    second = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), registry=registry)
    fallback = AssignmentEngine(fallback_model(), registry=registry)
    assert first.assign_batch([IN_A, IN_A, IN_B]).tolist() == [0, 0, 1]
    assert first.assign_batch([IN_A]).tolist() == [0]
    assert first.assign_batch([OUTLIER] * 3).tolist() == [-1] * 3
    first.assign_batch([Transaction({i, i + 1}) for i in range(10)] * 10)
    assert first.assign_batch([]).tolist() == []
    assert second.assign_batch([IN_A] * 5 + [IN_B] * 4).tolist() == [0] * 5 + [1] * 4
    assert fallback.assign_batch(["p", Unhashable(), "p"]).tolist() == [0, -1, 0]

    text = metrics_to_prometheus(registry.snapshot())
    lines = [
        line for line in text.splitlines()
        if "rock_serve_" in line and "rock_serve_assign_" not in line
    ]
    assert "\n".join(lines) + "\n" == PINNED_SERVE_TEXT
