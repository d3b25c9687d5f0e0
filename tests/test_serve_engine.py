"""Engine/labeler equivalence and the AssignmentEngine behaviours.

The acceptance bar for the serve subsystem is that the vectorised batch
engine is a pure optimisation: point-for-point identical to the §4.6
``ClusterLabeler`` on any input, including all-outlier batches,
duplicate points and empty labeling sets.  The property test drives
randomly generated market-basket data through both paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import ClusterLabeler
from repro.core.similarity import JaccardSimilarity, SimilarityTable
from repro.data.transactions import Transaction
from repro.serve import AssignmentEngine, RockModel

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
    labeler = ClusterLabeler(
        labeling_sets,
        theta=theta,
        similarity=lambda a, b: JaccardSimilarity()(a, b),
        f=lambda _t: (1 - theta) / (1 + theta),
    )
    assert labeler.index is None
    engine = AssignmentEngine(make_model(labeling_sets, theta=theta))
    assert engine.vectorized
    assert engine.assign_batch(batch).tolist() == labeler.assign_all(batch).tolist()


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


def test_duplicate_points_consistent_and_cached():
    engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
    point = Transaction({1, 2, 3})
    batch = [point] * 10 + [Transaction({7, 8, 9})] * 5 + [Transaction({99})] * 3
    labels = engine.assign_batch(batch)
    assert labels.tolist() == [0] * 10 + [1] * 5 + [-1] * 3
    # 3 distinct points scored, everything else deduplicated in-batch
    assert serve_counters(engine)["cache.misses"] == 3
    # a second pass over the same points is all cache hits
    labels2 = engine.assign_batch(batch)
    assert labels2.tolist() == labels.tolist()
    assert serve_counters(engine)["cache.hits"] >= len(batch)


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
        engine_small = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B]), block_size=3, cache_size=0
        )
        engine_big = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        batch = [Transaction({i % 5, (i * 7) % 11, i % 3}) for i in range(50)]
        assert engine_small.assign_batch(batch).tolist() == \
            engine_big.assign_batch(batch).tolist()

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

    def test_cache_eviction_keeps_results_correct(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), cache_size=2)
        batch = [Transaction({i, i + 1}) for i in range(20)]
        expected = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B]), cache_size=0
        ).assign_batch(batch)
        assert engine.assign_batch(batch).tolist() == expected.tolist()
        assert len(engine._cache) <= 2

    def test_cache_disabled(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), cache_size=0)
        labels = engine.assign_batch([Transaction({1, 2, 3})] * 4)
        assert labels.tolist() == [0] * 4
        assert serve_counters(engine)["cache.hits"] == 0

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
        with pytest.raises(ValueError, match="cache_size"):
            AssignmentEngine(model, cache_size=-1)
        with pytest.raises(ValueError, match="block_size"):
            AssignmentEngine(model, block_size=0)
        engine = AssignmentEngine(model)
        with pytest.raises(ValueError, match="batch_size"):
            list(engine.assign_iter([], batch_size=0))

    def test_empty_batch(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        assert engine.assign_batch([]).shape == (0,)
        assert engine.assign_all([]).shape == (0,)


class TestCacheAccounting:
    """Hit/miss counters reflect real LRU lookups only (regression).

    Previously ``cache_size=0`` reported every point as a miss, so a
    cacheless engine showed a 0% hit rate over thousands of phantom
    lookups instead of an empty cache section.
    """

    def test_cache_disabled_reports_zero_lookups(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), cache_size=0)
        engine.assign_batch([Transaction({1, 2, 3})] * 7)
        counters = serve_counters(engine)
        assert counters["cache.hits"] == 0
        assert counters["cache.misses"] == 0
        assert counters["cache.uncacheable"] == 7

    def test_unhashable_points_count_as_uncacheable_not_misses(self):
        table = SimilarityTable(
            {("p", "a1"): 0.9}, key=lambda p: getattr(p, "name", p)
        )
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model)

        class Unhashable:
            __hash__ = None
            name = "q"

        engine.assign_batch(["p", Unhashable(), Unhashable()])
        counters = serve_counters(engine)
        assert counters["cache.misses"] == 1  # "p" is a real lookup miss
        assert counters["cache.uncacheable"] == 2
        assert counters["cache.hits"] == 0

    def test_cache_disabled_still_dedupes_within_batch(self):
        """cache_size=0 must not re-score duplicates inside one batch.

        Regression: the cacheless path used to score every occurrence,
        so a batch of 5000 copies of one point paid 5000 scorings.  The
        dedupe is in-batch only -- the LRU stays off and the metrics
        still report every occurrence as uncacheable.
        """
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]), cache_size=0)
        scored_sizes = []
        original = engine._assign_uncached

        def spy(points):
            scored_sizes.append(len(points))
            return original(points)

        engine._assign_uncached = spy
        batch = [Transaction({1, 2, 3})] * 5 + [Transaction({7, 8, 9})] * 3
        labels = engine.assign_batch(batch)
        assert labels.tolist() == [0] * 5 + [1] * 3
        assert scored_sizes == [2]  # two distinct keys, scored once each
        counters = serve_counters(engine)
        assert counters["cache.hits"] == 0 and counters["cache.misses"] == 0
        assert counters["cache.uncacheable"] == 8
        assert len(engine._cache) == 0  # the LRU really stayed off

    def test_hit_rate_is_exact_with_mixed_traffic(self):
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        point = Transaction({1, 2, 3})
        engine.assign_batch([point])  # 1 miss
        engine.assign_batch([point, point, point])  # 3 hits
        counters = serve_counters(engine)
        assert counters["cache.hits"] == 3
        assert counters["cache.misses"] == 1


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


class TestCacheThreadSafety:
    """The HTTP server shares one engine across executor threads."""

    def test_concurrent_hammer_is_correct_and_uncorrupted(self):
        import threading

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
        # cache far smaller than the working set: constant concurrent
        # eviction, the worst case for an unlocked OrderedDict
        engine = AssignmentEngine(make_model(labeling_sets, theta=0.3),
                                  cache_size=8)
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            local = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(150):
                i = int(local.integers(len(points)))
                if local.integers(2):
                    got = engine.assign(points[i])
                    want = expected[i]
                    if got != want:
                        errors.append((i, got, want))
                else:
                    idx = local.integers(len(points), size=4).tolist()
                    got = engine.assign_batch([points[j] for j in idx])
                    for j, g in zip(idx, got.tolist()):
                        if g != expected[j]:
                            errors.append((j, g, expected[j]))

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == [], errors[:10]
        counters = serve_counters(engine)
        # accounting stayed consistent under contention: duplicates
        # inside one batch share a lookup, so <= not ==
        lookups = counters["cache.hits"] + counters["cache.misses"]
        assert 0 < lookups <= counters["points"]
        assert len(engine._cache) <= 8
