"""The §4.6 assignment tiers -- bitwise equivalence through one entry point.

:class:`~repro.serve.index.AssignmentIndex` picks the tier for every
batch call (:attr:`~repro.serve.index.AssignmentIndex.tier`): ``native``
(the fused ``assign_block`` kernel) where the C tier probes and
``theta > 0``, else ``dense`` (the :class:`LabelingIndex` matmul) or
``pruned`` (scipy or numpy candidate gather) by the index's posting
share.  Each tier is only admissible as a pure optimisation: forced
through :func:`tests.tiers.forced_tier`, every tier -- and the scalar
path of custom similarities -- must produce the same labels *and* the
same winning scores, bit for bit, as the oracle
:meth:`ClusterLabeler.assign`.  The hypothesis properties drive random
labeling sets (including empty clusters and empty representative
sets), random points (including empty item sets and points with zero
vocabulary overlap), every interesting theta -- ``0.0`` (the
every-rep-is-a-neighbor degenerate case) through ``1.0`` -- and
categorical records with missing values through all tiers.
"""

import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encode_query
from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.core.pipeline import RockPipeline
from repro.core.similarity import JaccardSimilarity, similarity_levels
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction
from repro.datasets.synthetic_basket import (
    SyntheticBasketConfig,
    generate_synthetic_basket,
)
from repro.native import get_kernels
from repro.obs.registry import Counter
from repro.obs.trace import Tracer
from repro.serve import (
    AssignmentEngine,
    AssignmentIndex,
    RockModel,
    resolve_assign_backend,
)
from repro.serve.index import min_overlap
from repro.stream import StreamClusterer
from tests.threads import THREAD_COUNTS, forced_threads
from tests.tiers import INDEX_TIERS, forced_tier

# the probed C tier, when it works on this machine; tests loop over
# this (empty or one-element) list
ASSIGN_KERNELS = [kernels for kernels in (get_kernels(),) if kernels is not None]

THETAS = [0.0, 0.2, 0.4, 0.5, 0.75, 1.0]


def make_model(labeling_sets, theta=0.4, **kwargs):
    return RockModel(
        labeling_sets=labeling_sets,
        theta=theta,
        f_theta=(1 - theta) / (1 + theta),
        **kwargs,
    )


def oracle_assign_with_scores(labeler: ClusterLabeler, points):
    """``(labels, best scores)`` from the per-point oracle
    :meth:`ClusterLabeler.assign` and :meth:`ClusterLabeler.scores` --
    the contract every tier must reproduce bit for bit."""
    labels = np.array([labeler.assign(p) for p in points], dtype=np.int64)
    best = np.array(
        [labeler.scores(p)[c] if c >= 0 else 0.0 for p, c in zip(points, labels)],
        dtype=np.float64,
    )
    return labels, best


def assert_bitwise_equal(ref_labels, ref_best, labels, best):
    assert np.array_equal(ref_labels, labels)
    assert ref_best.tobytes() == np.asarray(best, dtype=np.float64).tobytes()


def scalar_labeler(labeling_sets, theta, f_theta):
    """The same labeler on the scalar path: a custom similarity admits
    no index."""
    return ClusterLabeler(
        labeling_sets,
        theta=theta,
        similarity=lambda a, b: JaccardSimilarity()(a, b),
        f=lambda _t: f_theta,
    )


# -- the equivalence property -------------------------------------------------

rep_sets = st.frozensets(st.integers(min_value=0, max_value=12), max_size=5)
labeling_sets_strategy = st.lists(
    st.lists(rep_sets, max_size=4), min_size=1, max_size=4
).filter(lambda ls: any(len(li) for li in ls))
# points reach past the vocabulary bound on purpose: out-of-vocabulary
# items intersect nothing but still enlarge every union
points_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=20), max_size=6),
    min_size=0,
    max_size=25,
)


class TestTierEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        sets=labeling_sets_strategy,
        points=points_strategy,
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 8192]),
        threads=st.sampled_from(THREAD_COUNTS),
    )
    def test_all_tiers_bitwise_identical(
        self, sets, points, theta, block_size, threads
    ):
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        batch = [Transaction(p) for p in points]
        f_theta = (1 - theta) / (1 + theta)
        labeler = ClusterLabeler(labeling_sets, theta=theta, f=lambda _t: f_theta)
        fast = labeler.assignment_index
        ref_labels, ref_best = oracle_assign_with_scores(labeler, batch)
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                if theta > 0.0 or tier != "native":
                    assert labeler.assign_backend == tier
                labels, best = labeler.assign_with_scores(batch)
                assert_bitwise_equal(ref_labels, ref_best, labels, best)
                serial, threaded = Counter(), Counter()
                fast.assign_with_scores(batch, block_size=1, counter=serial)
                # the native tier maps its blocks over threads
                with forced_threads(threads):
                    labels, best = fast.assign_with_scores(
                        batch, block_size=block_size, counter=threaded
                    )
                assert_bitwise_equal(ref_labels, ref_best, labels, best)
                if tier == "native":
                    assert threaded.value == serial.value

        # the scalar path of a custom similarity agrees too
        scalar = scalar_labeler(labeling_sets, theta, f_theta)
        assert scalar.assign_backend == "fallback"
        labels, best = scalar.assign_with_scores(batch)
        assert_bitwise_equal(ref_labels, ref_best, labels, best)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", None]),
                st.sampled_from(["x", "y", None]),
                st.sampled_from(["1", "2", "3", None]),
            ),
            min_size=1,
            max_size=12,
        ),
        split=st.integers(min_value=1, max_value=11),
        theta=st.sampled_from(THETAS),
    )
    def test_records_with_missing_values(self, rows, split, theta):
        """Categorical records (``None`` = missing) agree across tiers."""
        schema = CategoricalSchema(["f0", "f1", "f2"])
        records = [
            CategoricalRecord(
                schema, [MISSING if v is None else v for v in row]
            )
            for row in rows
        ]
        split = min(split, len(records))
        labeling_sets = [records[:split], records[split:]]
        if all(len(li) == 0 for li in labeling_sets):
            return
        f_theta = (1 - theta) / (1 + theta)
        labeler = ClusterLabeler(labeling_sets, theta=theta, f=lambda _t: f_theta)
        # query with the records themselves plus an all-missing one
        batch = records + [CategoricalRecord(schema, [MISSING] * 3)]
        ref_labels, ref_best = oracle_assign_with_scores(labeler, batch)
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                labels, best = labeler.assign_with_scores(batch)
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

    def test_outlier_short_circuit(self):
        """Zero-overlap points label -1 and score 0.0 on every tier."""
        labeler = ClusterLabeler(
            [[Transaction({1, 2})], [Transaction({3, 4})]], 0.5, f=lambda _t: 0.4
        )
        batch = [Transaction({99, 100}), Transaction(set()), Transaction({1, 2})]
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                labels, best = labeler.assign_with_scores(batch)
            assert labels.tolist() == [-1, -1, 0]
            assert best[:2].tolist() == [0.0, 0.0]
            assert best[2] > 0.0

    def test_empty_batch_every_tier(self):
        labeler = ClusterLabeler([[Transaction({1})]], 0.5, f=lambda _t: 0.4)
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                labels, best = labeler.assign_with_scores([])
                assert labeler.assign_all([]).shape == (0,)
            assert labels.shape == (0,) and best.shape == (0,)

    def test_pickle_roundtrip_preserves_assignments(self):
        """The index ships through pool payloads; behaviour must survive
        on every tier, and no kernel handle travels with it."""
        fast = AssignmentIndex(
            LabelingIndex(
                [[Transaction({1, 2, 3}), Transaction({2, 3, 4})],
                 [Transaction({7, 8})]],
                0.4,
                0.4,
            )
        )
        batch = [Transaction({1, 2}), Transaction({7, 8}), Transaction({50})]
        before = fast.assign_with_scores(batch)
        clone = pickle.loads(pickle.dumps(fast))
        assert clone._rep_t is None  # the scipy handle never travels
        assert clone.posting_share == fast.posting_share
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                assert clone.tier == tier
                after = clone.assign_with_scores(batch)
            assert_bitwise_equal(before[0], before[1], after[0], after[1])


# -- backend resolution and engine wiring -------------------------------------

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


def tier_model(n_clusters, vocab, seed=0):
    """Deployment-shaped labeling sets, as the assignment-tier bench
    draws them: six 8-item representatives per cluster from per-cluster
    pools carved out of a ``vocab``-item universe."""
    import random

    rng = random.Random(seed)
    width = max(12, vocab // n_clusters)
    pools = [rng.sample(range(vocab), width) for _ in range(n_clusters)]
    return [
        [Transaction(rng.sample(pool, 8)) for _ in range(6)] for pool in pools
    ]


def table5_sample_sets(n=2000, seed=1):
    """The paper-basket sample's labeling sets: k=10 over ``n`` Table 5
    baskets, as the benchmark fits its 2,000-point sample."""
    default = SyntheticBasketConfig()
    scale = n / default.n_transactions
    config = replace(
        default,
        cluster_sizes=tuple(max(1, round(s * scale)) for s in default.cluster_sizes),
        n_outliers=round(default.n_outliers * scale),
    )
    basket = generate_synthetic_basket(config, seed=seed)
    pipeline = RockPipeline(k=10, theta=0.5, min_cluster_size=20, seed=seed)
    return pipeline.fit_model(basket.transactions)[1].labeling_sets


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown assign backend"):
            resolve_assign_backend("turbo")

    def test_dense_and_pruned_never_probe(self, monkeypatch):
        """No caller forces a tier: every request but ``auto`` is
        rejected before the probe runs."""
        import repro.native

        def no_probe():
            raise AssertionError("probed")

        monkeypatch.setattr(repro.native, "get_kernels", no_probe)
        for forced in ("dense", "pruned", "native"):
            with pytest.raises(ValueError, match="only 'auto'"):
                resolve_assign_backend(forced)

    def test_auto_resolves_to_fast_tier(self, monkeypatch):
        """The probe half: native wherever the C tier probed clean, the
        numpy tiers under the ``REPRO_NATIVE=0`` kill switch -- silently
        either way -- and the index finishes the choice."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernels = get_kernels()
        expected = ("numpy", None) if kernels is None else ("native", kernels)
        index = ClusterLabeler([CLUSTER_A, CLUSTER_B], 0.4).assignment_index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_assign_backend("auto") == expected
            assert resolve_assign_backend() == expected
            if kernels is not None:
                assert index.tier == "native"
            monkeypatch.setenv("REPRO_NATIVE", "0")
            assert resolve_assign_backend("auto") == ("numpy", None)
            assert index.tier == "dense"  # posting share 20 / 48
            assert index.posting_share == pytest.approx(20 / 48)

    @pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
    def test_native_resolves_when_available(self):
        backend, kernels = resolve_assign_backend("auto")
        assert backend == "native"
        assert hasattr(kernels, "assign_block")

    def test_native_needs_a_positive_theta(self):
        """theta 0 makes every representative a neighbor: the constant
        counts answer it on a numpy tier even where the C tier runs."""
        index = ClusterLabeler([CLUSTER_A, CLUSTER_B], 0.0).assignment_index
        assert index.tier == "dense"
        assert index.assign([Transaction({99})]).tolist() == [0]

    def test_no_compiler_rule_on_measured_shapes(self, monkeypatch):
        """Without the C tier the paper-basket sample's model scores
        dense and every deployment-shaped model of the tier bench
        pruned."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        sample = ClusterLabeler(table5_sample_sets(), 0.5).assignment_index
        assert sample.n_reps > 400
        assert sample.tier == "dense"
        for n_clusters, vocab in ((100, 1_000), (100, 4_000), (200, 2_000), (400, 4_000)):
            index = ClusterLabeler(tier_model(n_clusters, vocab), 0.5).assignment_index
            assert index.tier == "pruned", (n_clusters, vocab, index.posting_share)


class TestEngineBackends:
    def test_every_backend_matches_the_labeler(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        labeler = model.labeler()
        batch = [
            Transaction({1, 2}), Transaction({7, 8}), Transaction({42}),
            Transaction({1, 2, 7, 8}), Transaction(set()),
        ]
        expected = [labeler.assign(point) for point in batch]
        engine = AssignmentEngine(model)
        assert engine.vectorized
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                assert engine.assign_batch(batch).tolist() == expected
                assert engine.assign_backend == tier

    def test_backend_gauge_marks_the_active_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        gauges = engine.registry.snapshot()["gauges"]
        assert engine.assign_backend == "dense"
        assert gauges["serve.assign.backend.dense"] == 1
        assert gauges["serve.assign.backend.pruned"] == 0
        assert gauges["serve.assign.backend.native"] == 0
        assert gauges["serve.assign.backend.fallback"] == 0

    def test_fallback_tier_for_custom_similarity(self):
        from repro.core.similarity import SimilarityTable

        table = SimilarityTable({("p", "a1"): 0.9})
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model)
        assert engine.assign_backend == "fallback"
        assert not engine.vectorized
        assert engine.assign("p") == 0
        gauges = engine.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.fallback"] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        sets=labeling_sets_strategy,
        points=points_strategy,
        theta=st.sampled_from(THETAS),
    )
    def test_engine_tiers_agree_on_random_inputs(self, sets, points, theta):
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        model = make_model(labeling_sets, theta=theta)
        batch = [Transaction(p) for p in points]
        labeler = model.labeler()
        expected = [labeler.assign(p) for p in batch]
        engine = AssignmentEngine(model)
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                assert engine.assign_batch(batch).tolist() == expected

    @pytest.mark.parametrize("rule", ["default", "numpy", "dense", "pruned"])
    def test_scan_engine_and_stream_name_one_tier(self, monkeypatch, rule):
        """The label scan, the engine and the stream labeler ask one
        index, so one model gets one tier in all three."""
        if rule != "default":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        if rule in ("dense", "pruned"):
            import repro.serve.index as index_mod

            cut = 0.0 if rule == "dense" else math.inf
            monkeypatch.setattr(index_mod, "DENSE_POSTING_SHARE", cut)
        clusterer = StreamClusterer(
            RockPipeline(k=2, theta=0.4, min_cluster_size=1, seed=0),
            reservoir_size=8,
        )
        clusterer.process((CLUSTER_A + CLUSTER_B) * 2)
        tier = clusterer._assign_backend
        assert tier in ("native", "dense", "pruned")
        assert clusterer.model.labeler().assign_backend == tier
        assert AssignmentEngine(clusterer.model).assign_backend == tier
        if rule in ("dense", "pruned"):
            assert tier == rule


# -- the prefix-filtered native kernel ---------------------------------------

# thresholds some pair of small set sizes meets exactly (inter / union ==
# theta): the boundary a prefix one item short would cut; 1.0 included
LEVELS = sorted(
    {
        level
        for a in range(1, 9)
        for b in range(1, 9)
        for level in similarity_levels(a, b)
        if level > 0.0
    }
)
OOV = st.frozensets(st.integers(min_value=100, max_value=140), max_size=8)


def brute_min_overlap(size, theta):
    return next(
        (o for o in range(size + 1) if o / max(size, 1) >= theta), size + 1
    )


class TestMinOverlap:
    @pytest.mark.parametrize(
        "size, theta, expected",
        [
            (5, 0.6, 3),  # 3 / 5 == 0.6 exactly
            (4, 0.75, 3),  # 3 / 4 == 0.75 exactly
            (6, 1 / 3, 2),  # 2 / 6 rounds to the float 1 / 3
            (25, 7 / 25, 7),  # ceil(theta * 25) == 8: one step down
            (75, math.nextafter(9 / 75, 1.0), 10),  # 9 / 75 just misses
            (7, 1.0, 7),  # theta 1 needs the whole set
            (0, 0.5, 1),  # an empty set never reaches theta > 0
            (3, 1.5, 4),  # unreachable theta: s + 1
        ],
    )
    def test_exact_boundaries(self, size, theta, expected):
        assert brute_min_overlap(size, theta) == expected
        assert min_overlap([size], theta).tolist() == [expected]

    @pytest.mark.parametrize("theta", LEVELS + [0.0, 0.1 + 0.2, 0.7])
    def test_matches_brute_force(self, theta):
        sizes = np.arange(0, 80)
        assert min_overlap(sizes, theta).tolist() == [
            brute_min_overlap(int(s), theta) for s in sizes
        ]


@pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
class TestPrefixKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        sets=st.lists(
            st.lists(
                st.frozensets(st.integers(min_value=0, max_value=11), max_size=7),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda ls: any(len(li) for li in ls)),
        tie=st.booleans(),
        points=st.lists(
            st.tuples(
                st.frozensets(st.integers(min_value=0, max_value=11), max_size=9),
                OOV,
            ),
            max_size=30,
        ),
        theta=st.sampled_from(LEVELS),
        block_size=st.sampled_from([1, 4, 8192]),
    )
    def test_matches_labeler_and_pruned_tier(
        self, sets, tie, points, theta, block_size
    ):
        """Labels equal the §4.6 labeler's, scores the pruned tier's bit
        for bit -- at exact-boundary thresholds, with queries made
        mostly or only of out-of-vocabulary items, queries larger than
        every representative, empty queries and empty ``L_i`` members,
        and (``tie``) a duplicated cluster that ties every score."""
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        if tie:
            labeling_sets.append(list(labeling_sets[0]))
        batch = [Transaction(inv | oov) for inv, oov in points]
        f_theta = (1 - theta) / (1 + theta)
        labeler = ClusterLabeler(labeling_sets, theta=theta, f=lambda _t: f_theta)
        fast = labeler.assignment_index
        verified, scored = Counter(), Counter()
        with forced_tier("native"):
            labels, best = fast.assign_with_scores(
                batch, block_size=block_size, counter=verified
            )
        assert labels.tolist() == [labeler.assign(p) for p in batch]
        with forced_tier("pruned"):
            ref_labels, ref_best = fast.assign_with_scores(
                batch, block_size=block_size, counter=scored
            )
        assert_bitwise_equal(ref_labels, ref_best, labels, best)
        # every verified candidate shares an item with its point
        assert verified.value <= scored.value

    def test_long_row_is_sorted_before_probing(self):
        """A 36-item point, past the kernel's insertion-sort cutoff.

        At theta 0.6 the point C | {b} reaches rep 0 = E | {b} | C at
        exactly 36/60 through b alone: the last item of rep 0's prefix
        (the 25 items of frequency 1) and the rarest item of the point,
        which iterates after every C item.  Rep 1 = C ties rep 0, so
        the label is 0 only if the row was sorted before probing."""
        common = list(range(35))
        b = 200
        rare = list(range(300, 324))
        labeling_sets = [
            [Transaction(rare + [b] + common)],
            [Transaction(common)],
        ]
        point = Transaction(common + [b])
        labeler = ClusterLabeler(labeling_sets, theta=0.6, f=lambda _t: 0.4)
        assert labeler.assign(point) == 0
        with forced_tier("pruned"):
            ref_labels, ref_best = labeler.assign_with_scores([point])
        with forced_tier("native"):
            labels, best = labeler.assign_with_scores([point])
        assert_bitwise_equal(ref_labels, ref_best, labels, best)

    def test_out_of_vocabulary_batch_verifies_nothing(self):
        labeler = ClusterLabeler([CLUSTER_A, CLUSTER_B], 0.4, f=lambda _t: 0.4)
        batch = [Transaction({90, 91}), Transaction({92}), Transaction(set())]
        verified = Counter()
        with forced_tier("native"):
            labels, best = labeler.assign_with_scores(batch, counter=verified)
        assert labels.tolist() == [-1, -1, -1]
        assert best.tolist() == [0.0, 0.0, 0.0]
        assert verified.value == 0

    def test_no_probe_when_oov_items_fill_the_prefix(self):
        """{1, 2} plus four OOV items reaches {1, 2, 3} at 2/7 < 0.5: the
        OOV items rank first and use up the whole prefix, so the point
        is an outlier without a single candidate."""
        labeler = ClusterLabeler([CLUSTER_A], 0.5, f=lambda _t: 0.4)
        verified = Counter()
        with forced_tier("native"):
            labels, _ = labeler.assign_with_scores(
                [Transaction({1, 2, 90, 91, 92, 93})], counter=verified
            )
        assert labels.tolist() == [-1]
        assert verified.value == 0


def table5_baskets(n, seed):
    """``n`` Table 5 baskets: the generator's shape, scaled."""
    default = SyntheticBasketConfig()
    scale = n / default.n_transactions
    config = replace(
        default,
        cluster_sizes=tuple(max(1, round(s * scale)) for s in default.cluster_sizes),
        n_outliers=round(default.n_outliers * scale),
    )
    return generate_synthetic_basket(config, seed=seed).transactions


@pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
class TestBoundKernel:
    """The native tier binds ``assign_block`` to its index once and
    reuses each thread's scratch across calls.  Every call must equal
    a fresh-scratch call of the unbound kernel and the dense tier, bit
    for bit, in any order of call sizes and threads."""

    @pytest.fixture(scope="class")
    def setup(self):
        labeler = ClusterLabeler(table5_sample_sets(), 0.5, f=lambda _t: 0.4)
        fast = labeler.assignment_index
        # fresh Transactions, as HTTP and the stream hand the index
        batch = [Transaction(t.items) for t in table5_baskets(8300, seed=5)]
        with forced_tier("dense"):
            dense = fast.assign_with_scores(batch[:8192])
        return fast, batch[:8192], dense

    @staticmethod
    def fresh(fast, points):
        """The unbound kernel: new scratch for this one call."""
        labels, best, _ = ASSIGN_KERNELS[0].assign_block(
            *encode_query(points, fast.vocabulary),
            fast.pre_indptr, fast.pre_reps, fast.rep_indptr, fast.rep_items,
            fast.rep_cluster, fast.normalisers, fast.theta,
        )
        return labels, best

    def test_one_point_and_full_block_calls_interleaved(self, setup):
        fast, batch, (dense_labels, dense_best) = setup
        assert fast.tier == "native"
        fresh_labels, fresh_best = self.fresh(fast, batch)
        assert_bitwise_equal(dense_labels, dense_best, fresh_labels, fresh_best)
        for round_ in range(2):
            labels, best = fast.assign_with_scores(batch)  # one 8,192-row block
            assert_bitwise_equal(dense_labels, dense_best, labels, best)
            for i in range(round_, 400, 2):
                one = fast.assign_with_scores([batch[i]])
                assert_bitwise_equal(
                    dense_labels[i : i + 1], dense_best[i : i + 1], *one
                )
        assert fast._bound is not None

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_block_map_threads_keep_their_own_scratch(self, setup, threads):
        fast, batch, (dense_labels, dense_best) = setup
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' Python
        try:
            with forced_threads(threads):
                for block_size in (1024, 8192, 97):
                    labels, best = fast.assign_with_scores(
                        batch, block_size=block_size
                    )
                    assert_bitwise_equal(dense_labels, dense_best, labels, best)
        finally:
            sys.setswitchinterval(interval)

    def test_pickled_index_binds_afresh(self, setup):
        fast, batch, (dense_labels, dense_best) = setup
        fast.assign_with_scores(batch[:1])  # bound before pickling
        clone = pickle.loads(pickle.dumps(fast))
        assert clone._bound is None and clone._rep_t is None
        labels, best = clone.assign_with_scores(batch)
        assert_bitwise_equal(dense_labels, dense_best, labels, best)
        one = clone.assign_with_scores([batch[7]])
        assert_bitwise_equal(dense_labels[7:8], dense_best[7:8], *one)


def table5_fit(tracer):
    """A Table 5-shaped fit: the paper's item structure, 1/50 of its points."""
    default = SyntheticBasketConfig()
    config = replace(
        default,
        cluster_sizes=tuple(s // 50 for s in default.cluster_sizes),
        n_outliers=default.n_outliers // 50,
    )
    basket = generate_synthetic_basket(config, seed=5)
    pipeline = RockPipeline(
        k=10, theta=0.5, sample_size=500, min_cluster_size=5, seed=5
    )
    return pipeline.fit(basket.transactions, tracer=tracer)


class TestCandidateCounts:
    def test_pipeline_records_label_candidates(self):
        tracer = Tracer()
        result = table5_fit(tracer)
        n_reps = sum(len(li) for li in result.labeling_sets)
        n_labeled = len(result.labels) - len(result.sample_indices)
        pairs = n_labeled * n_reps
        candidates = tracer.registry.snapshot()["counters"]["fit.label.candidates"]
        label_span = next(
            span
            for root in tracer.spans()
            for span in root.iter_spans()
            if span.name == "label"
        )
        assert label_span.attrs["candidates"] == candidates
        tier = ClusterLabeler(result.labeling_sets, 0.5).assign_backend
        if tier == "dense":
            assert candidates == pairs  # the matmul scores every pair
        else:
            assert 0 < candidates < pairs  # the prefix filter or gather prunes

    def test_engine_records_assign_candidates(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        for tier in INDEX_TIERS:
            engine = AssignmentEngine(model)
            counters = engine.registry.snapshot
            with forced_tier(tier):
                engine.assign_batch([Transaction({90, 91}), Transaction({92})])
                oov = counters()["counters"]["serve.assign.candidates"]
                batch = [Transaction({1, 2}), Transaction({7, 8, 9})]
                engine.assign_batch(batch)
            recorded = counters()["counters"]["serve.assign.candidates"] - oov
            if tier == "dense":
                # the matmul scores every pair, shared items or not
                assert (oov, recorded) == (2 * 4, len(batch) * 4)
            else:
                assert oov == 0
                assert 0 < recorded <= len(batch) * 4


class TestBlockSize:
    @pytest.mark.parametrize("block_size", [0, -3])
    def test_non_positive_block_size_rejected(self, block_size):
        fast = ClusterLabeler([CLUSTER_A, CLUSTER_B], 0.4).assignment_index
        batch = [Transaction({1, 2}), Transaction({7, 8}), Transaction({42})]
        for tier in INDEX_TIERS:
            with forced_tier(tier):
                with pytest.raises(ValueError, match="block_size"):
                    fast.assign(batch, block_size=block_size)
                with pytest.raises(ValueError, match="block_size"):
                    fast.assign_with_scores(batch, block_size=block_size)


# the same fit in two interpreters whose string hashes differ
HASH_SEED_FIT = """
import hashlib
from tests.test_assign_index import table5_fit
from repro.core.labeling import ClusterLabeler
from repro.obs.trace import Tracer

tracer = Tracer()
result = table5_fit(tracer)
index = ClusterLabeler(result.labeling_sets, 0.5).assignment_index
print(hashlib.sha256(index.pre_reps.tobytes()).hexdigest())
print(tracer.registry.snapshot()["counters"]["fit.label.candidates"])
print(hashlib.sha256(result.labels.tobytes()).hexdigest())
"""


class TestHashSeed:
    def test_prefixes_and_candidates_ignore_the_hash_seed(self):
        """The representative vocabulary is sorted, as a dataset's is, so
        the rank order and prefix postings do not follow the iteration
        order of string item sets, nor does the scan's candidate count."""
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            run = subprocess.run(
                [sys.executable, "-c", HASH_SEED_FIT],
                env=env, cwd=root, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout.split())
        assert outputs[0] == outputs[1]
