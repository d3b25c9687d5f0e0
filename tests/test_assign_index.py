"""AssignmentIndex tiers vs the dense LabelingIndex -- bitwise equivalence.

The inverted-index fast path (:mod:`repro.serve.index`) is only
admissible as a pure optimisation: for every input, every tier --
``pruned`` (scipy or numpy candidate gather) and ``native`` (the fused
``assign_block`` kernel) -- must produce the same labels *and* the same
winning scores, bit for bit, as the dense matmul of
:class:`~repro.core.labeling.LabelingIndex`.  The hypothesis properties
drive random labeling sets (including empty clusters and empty
representative sets), random points (including empty item sets and
points with zero vocabulary overlap), every interesting theta --
``0.0`` (the every-rep-is-a-neighbor degenerate case) through ``1.0``
-- and categorical records with missing values through all tiers.
"""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.core.pipeline import RockPipeline
from repro.core.similarity import similarity_levels
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


def dense_assign_with_scores(index: LabelingIndex, points):
    """The dense reference for ``(labels, best scores)``: the
    ``LabelingIndex`` matmul, argmax and outlier rule -- the contract
    the index tiers must reproduce bit for bit.
    """
    counts = index.neighbor_counts(points)
    all_scores = counts / index.normalisers
    labels = np.argmax(all_scores, axis=1)
    best = all_scores[np.arange(len(points)), labels]
    outliers = ~counts.any(axis=1)
    labels[outliers] = -1
    best[outliers] = 0.0
    return labels.astype(np.int64), best


def assert_bitwise_equal(ref_labels, ref_best, labels, best):
    assert np.array_equal(ref_labels, labels)
    assert ref_best.tobytes() == np.asarray(best, dtype=np.float64).tobytes()


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
    )
    def test_all_tiers_bitwise_identical(self, sets, points, theta, block_size):
        labeling_sets = [[Transaction(s) for s in li] for li in sets]
        batch = [Transaction(p) for p in points]
        f_theta = (1 - theta) / (1 + theta)
        dense = LabelingIndex(labeling_sets, theta, f_theta)
        fast = AssignmentIndex(dense)

        # neighbor counts agree exactly (integers, so plain equality)
        assert np.array_equal(
            dense.neighbor_counts(batch), fast.neighbor_counts(batch)
        )

        ref_labels, ref_best = dense_assign_with_scores(dense, batch)
        assert np.array_equal(dense.assign(batch), ref_labels)

        # pruned tier
        labels, best = fast.assign_with_scores(batch, block_size=block_size)
        assert_bitwise_equal(ref_labels, ref_best, labels, best)

        # native tier(s)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores(
                batch, block_size=block_size, kernels=kernels
            )
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

        # the scalar §4.6 labeler agrees point for point
        labeler = ClusterLabeler(
            labeling_sets, theta=theta, f=lambda _t: f_theta
        )
        assert fast.assign(batch).tolist() == [
            labeler.assign(p) for p in batch
        ]

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
        dense = LabelingIndex(labeling_sets, theta, f_theta)
        fast = AssignmentIndex(dense)
        # query with the records themselves plus an all-missing one
        batch = records + [CategoricalRecord(schema, [MISSING] * 3)]
        ref_labels, ref_best = dense_assign_with_scores(dense, batch)
        labels, best = fast.assign_with_scores(batch)
        assert_bitwise_equal(ref_labels, ref_best, labels, best)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores(batch, kernels=kernels)
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

    def test_outlier_short_circuit(self):
        """Zero-overlap points label -1 without touching any arithmetic."""
        dense = LabelingIndex(
            [[Transaction({1, 2})], [Transaction({3, 4})]], 0.5, 0.4
        )
        fast = AssignmentIndex(dense)
        batch = [Transaction({99, 100}), Transaction(set()), Transaction({1, 2})]
        labels, best = fast.assign_with_scores(batch)
        assert labels.tolist() == [-1, -1, 0]
        assert best[:2].tolist() == [0.0, 0.0]
        assert best[2] > 0.0

    def test_empty_batch_every_tier(self):
        dense = LabelingIndex([[Transaction({1})]], 0.5, 0.4)
        fast = AssignmentIndex(dense)
        assert fast.assign([]).shape == (0,)
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores([], kernels=kernels)
            assert labels.shape == (0,) and best.shape == (0,)

    def test_pickle_roundtrip_preserves_assignments(self):
        """The index ships through pool payloads; behaviour must survive."""
        dense = LabelingIndex(
            [[Transaction({1, 2, 3}), Transaction({2, 3, 4})],
             [Transaction({7, 8})]],
            0.4,
            0.4,
        )
        fast = AssignmentIndex(dense)
        batch = [Transaction({1, 2}), Transaction({7, 8}), Transaction({50})]
        before = fast.assign_with_scores(batch)
        clone = pickle.loads(pickle.dumps(fast))
        assert clone._rep_t is None  # the scipy handle never travels
        after = clone.assign_with_scores(batch)
        assert_bitwise_equal(before[0], before[1], after[0], after[1])


# -- backend resolution and engine wiring -------------------------------------

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


def engines_per_tier(model, **kwargs):
    """``{tier: engine}`` for every index tier this machine has: the
    probe picks the tier, so ``pruned`` is built under ``REPRO_NATIVE=0``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NATIVE", "0")
        engines = {"pruned": AssignmentEngine(model, **kwargs)}
    if ASSIGN_KERNELS:
        engines["native"] = AssignmentEngine(model, **kwargs)
    return engines


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
        """native wherever the C tier probed clean, pruned under the
        ``REPRO_NATIVE=0`` kill switch -- silently either way."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernels = get_kernels()
        expected = ("pruned", None) if kernels is None else ("native", kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_assign_backend("auto") == expected
            assert resolve_assign_backend() == expected
            monkeypatch.setenv("REPRO_NATIVE", "0")
            assert resolve_assign_backend("auto") == ("pruned", None)

    @pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
    def test_native_resolves_when_available(self):
        backend, kernels = resolve_assign_backend("auto")
        assert backend == "native"
        assert hasattr(kernels, "assign_block")


class TestEngineBackends:
    def test_every_backend_matches_the_labeler(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        labeler = model.labeler()
        batch = [
            Transaction({1, 2}), Transaction({7, 8}), Transaction({42}),
            Transaction({1, 2, 7, 8}), Transaction(set()),
        ]
        expected = [labeler.assign(point) for point in batch]
        for tier, engine in engines_per_tier(model, cache_size=0).items():
            assert engine.assign_batch(batch).tolist() == expected
            assert engine.assign_backend == tier
            assert engine.fast_index is not None

    def test_backend_gauge_marks_the_active_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        engine = AssignmentEngine(make_model([CLUSTER_A, CLUSTER_B]))
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.pruned"] == 1
        assert gauges["serve.assign.backend.native"] == 0
        assert gauges["serve.assign.backend.fallback"] == 0
        assert "serve.assign.backend.dense" not in gauges

    def test_fallback_tier_for_custom_similarity(self):
        from repro.core.similarity import SimilarityTable

        table = SimilarityTable({("p", "a1"): 0.9})
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model)
        assert engine.assign_backend == "fallback"
        assert engine.fast_index is None
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.fallback"] == 1

    def test_prebuilt_index_is_reused(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        donor = AssignmentEngine(model)
        engine = AssignmentEngine(model, prebuilt_index=donor.fast_index)
        assert engine.fast_index is donor.fast_index
        assert engine.assign(Transaction({1, 2})) == 0

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
        dense = model.labeler().index.assign(batch).tolist()
        for engine in engines_per_tier(model, cache_size=0).values():
            assert engine.assign_batch(batch).tolist() == dense


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
        fast = AssignmentIndex(LabelingIndex(labeling_sets, theta, f_theta))
        labeler = ClusterLabeler(labeling_sets, theta=theta, f=lambda _t: f_theta)
        verified, scored = Counter(), Counter()
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores(
                batch, block_size=block_size, kernels=kernels, counter=verified
            )
            assert labels.tolist() == [labeler.assign(p) for p in batch]
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
        theta, f_theta = 0.6, 0.4
        fast = AssignmentIndex(LabelingIndex(labeling_sets, theta, f_theta))
        labeler = ClusterLabeler(labeling_sets, theta=theta, f=lambda _t: f_theta)
        assert labeler.assign(point) == 0
        ref_labels, ref_best = fast.assign_with_scores([point])
        for kernels in ASSIGN_KERNELS:
            labels, best = fast.assign_with_scores([point], kernels=kernels)
            assert_bitwise_equal(ref_labels, ref_best, labels, best)

    def test_out_of_vocabulary_batch_verifies_nothing(self):
        fast = AssignmentIndex(LabelingIndex([CLUSTER_A, CLUSTER_B], 0.4, 0.4))
        batch = [Transaction({90, 91}), Transaction({92}), Transaction(set())]
        for kernels in ASSIGN_KERNELS:
            verified = Counter()
            labels, best = fast.assign_with_scores(
                batch, kernels=kernels, counter=verified
            )
            assert labels.tolist() == [-1, -1, -1]
            assert best.tolist() == [0.0, 0.0, 0.0]
            assert verified.value == 0

    def test_no_probe_when_oov_items_fill_the_prefix(self):
        """{1, 2} plus four OOV items reaches {1, 2, 3} at 2/7 < 0.5: the
        OOV items rank first and use up the whole prefix, so the point
        is an outlier without a single candidate."""
        fast = AssignmentIndex(LabelingIndex([CLUSTER_A], 0.5, 0.4))
        verified = Counter()
        for kernels in ASSIGN_KERNELS:
            labels = fast.assign(
                [Transaction({1, 2, 90, 91, 92, 93})],
                kernels=kernels,
                counter=verified,
            )
            assert labels.tolist() == [-1]
        assert verified.value == 0


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
        if get_kernels() is not None:
            assert 0 < candidates < pairs  # the prefix filter prunes
        else:
            assert candidates == pairs  # the dense route scores every pair

    def test_engine_records_assign_candidates(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        for engine in engines_per_tier(model, cache_size=0).values():
            counters = engine.metrics.registry.snapshot
            engine.assign_batch([Transaction({90, 91}), Transaction({92})])
            assert counters()["counters"]["serve.assign.candidates"] == 0
            batch = [Transaction({1, 2}), Transaction({7, 8, 9})]
            engine.assign_batch(batch)
            recorded = counters()["counters"]["serve.assign.candidates"]
            assert 0 < recorded <= len(batch) * 4


class TestBlockSize:
    @pytest.mark.parametrize("block_size", [0, -3])
    def test_non_positive_block_size_rejected(self, block_size):
        dense = LabelingIndex([CLUSTER_A, CLUSTER_B], 0.4, 0.4)
        fast = AssignmentIndex(dense)
        batch = [Transaction({1, 2}), Transaction({7, 8}), Transaction({42})]
        with pytest.raises(ValueError, match="block_size"):
            dense.assign(batch, block_size=block_size)
        for kernels in [None, *ASSIGN_KERNELS]:
            with pytest.raises(ValueError, match="block_size"):
                fast.assign(batch, block_size=block_size, kernels=kernels)
            with pytest.raises(ValueError, match="block_size"):
                fast.assign_with_scores(
                    batch, block_size=block_size, kernels=kernels
                )
