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

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction
from repro.native import get_kernels
from repro.serve import (
    AssignmentEngine,
    AssignmentIndex,
    RockModel,
    resolve_assign_backend,
)

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
    """The dense reference for ``(labels, best scores)``.

    Mirrors ``StreamClusterer._label_batch``'s dense branch exactly --
    the contract the fast tiers must reproduce bit for bit.
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


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown assign backend"):
            resolve_assign_backend("turbo")

    def test_dense_and_pruned_never_probe(self):
        assert resolve_assign_backend("dense") == ("dense", None)
        assert resolve_assign_backend("pruned") == ("pruned", None)

    def test_auto_resolves_to_fast_tier(self, monkeypatch):
        """native wherever the C tier probed clean, pruned under the
        ``REPRO_NATIVE=0`` kill switch -- silently either way."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernels = get_kernels()
        expected = ("pruned", None) if kernels is None else ("native", kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_assign_backend("auto") == expected
            monkeypatch.setenv("REPRO_NATIVE", "0")
            assert resolve_assign_backend("auto") == ("pruned", None)

    def test_native_degrades_with_warning_when_unavailable(self, monkeypatch):
        import repro.native

        monkeypatch.setattr(repro.native, "get_kernels", lambda *a: None)
        with pytest.warns(RuntimeWarning, match="falling back to 'pruned'"):
            backend, kernels = resolve_assign_backend("native")
        assert backend == "pruned" and kernels is None

    @pytest.mark.skipif(not ASSIGN_KERNELS, reason="no native assign kernel")
    def test_native_resolves_when_available(self):
        backend, kernels = resolve_assign_backend("native")
        assert backend == "native"
        assert hasattr(kernels, "assign_block")


class TestEngineBackends:
    def engine_backends(self):
        backends = ["dense", "pruned"]
        if ASSIGN_KERNELS:
            backends.append("native")
        return backends

    def test_every_backend_matches_the_labeler(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        labeler = model.labeler()
        batch = [
            Transaction({1, 2}), Transaction({7, 8}), Transaction({42}),
            Transaction({1, 2, 7, 8}), Transaction(set()),
        ]
        expected = labeler.assign_all(batch).tolist()
        for backend in self.engine_backends():
            engine = AssignmentEngine(
                model, assign_backend=backend, cache_size=0
            )
            assert engine.assign_batch(batch).tolist() == expected
            assert engine.assign_backend == backend

    def test_backend_gauge_marks_the_active_tier(self):
        engine = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B]), assign_backend="pruned"
        )
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.pruned"] == 1
        assert gauges["serve.assign.backend.dense"] == 0
        assert gauges["serve.assign.backend.native"] == 0
        assert gauges["serve.assign.backend.fallback"] == 0

    def test_fallback_tier_for_custom_similarity(self):
        from repro.core.similarity import SimilarityTable

        table = SimilarityTable({("p", "a1"): 0.9})
        model = make_model([["a1"], ["b1"]], theta=0.5, similarity=table)
        engine = AssignmentEngine(model, assign_backend="auto")
        assert engine.assign_backend == "fallback"
        assert engine.fast_index is None
        gauges = engine.metrics.registry.snapshot()["gauges"]
        assert gauges["serve.assign.backend.fallback"] == 1

    def test_dense_backend_builds_no_index(self):
        engine = AssignmentEngine(
            make_model([CLUSTER_A, CLUSTER_B]), assign_backend="dense"
        )
        assert engine.fast_index is None
        assert engine.assign_backend == "dense"

    def test_prebuilt_index_is_reused(self):
        model = make_model([CLUSTER_A, CLUSTER_B])
        donor = AssignmentEngine(model, assign_backend="pruned")
        engine = AssignmentEngine(
            model, assign_backend="pruned", prebuilt_index=donor.fast_index
        )
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = {
                backend: AssignmentEngine(
                    model, assign_backend=backend, cache_size=0
                ).assign_batch(batch).tolist()
                for backend in ("dense", "pruned", "native")
            }
        assert results["pruned"] == results["dense"]
        assert results["native"] == results["dense"]
