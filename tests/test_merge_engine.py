"""The component merge engine vs the Figure 3 reference loop.

The component engine (:mod:`repro.core.merge`) is only admissible as a
pure optimisation: for every link table, goodness measure,
``f(theta)``, ``k`` and starting partition it must reproduce the
reference loop (:func:`~repro.core.rock.heap_cluster_with_links`)
**byte for byte** -- the same clusters, the same
:class:`~repro.core.rock.MergeStep` history entry for entry with
bitwise-identical goodness floats, and the same ``stopped_early``
flag.  The hypothesis property drives randomized link tables (integer
and similarity-weighted counts) through the default engine (native
where the C tier probes clean) and the Python inner loop
(``REPRO_NATIVE=0``) across the goodness measures, ``f(theta)`` in
{0, default}, and random ``initial_clusters`` partitions.
"""

import io
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import (
    NaiveGoodnessKernel,
    NormalizedGoodnessKernel,
    PowerTable,
    default_f,
    goodness,
    merge_kernel_for,
    naive_goodness,
)
from repro.core.labeling import clusters_from_labels, labels_from_clusters
from repro.core.links import LinkTable
from repro.core.merge import fast_cluster_with_links, merge_engine
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links, heap_cluster_with_links, rock
from repro.core.serialization import save_result
from repro.data.transactions import Transaction, TransactionDataset
from repro.obs.registry import MetricsRegistry
from tests.linktables import link_table, replicated_components

F_THETAS = [0.0, default_f(0.5)]


def make_links(n: int, edges: dict[tuple[int, int], float]) -> LinkTable:
    return link_table(n, [(i, j, count) for (i, j), count in edges.items()])


def reference_goodness(count, ni, nj, f_theta):
    """The built-in measure behind a custom callable: any fit given it
    runs the reference heap loop, with bitwise-equal goodness values."""
    return goodness(count, ni, nj, f_theta)


def python_engine(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the C tier switched off, so the
    component engine runs its Python inner loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NATIVE", "0")
        return run(*args, **kwargs)


def engine_results(run, *args, **kwargs):
    """The default engine's result, then the Python inner loop's."""
    return [run(*args, **kwargs), python_engine(run, *args, **kwargs)]


def assert_identical(ref, fast) -> None:
    """Byte-for-byte RockResult equality, goodness floats included:
    the clusters, the merge history, the labels and the saved bytes."""
    assert fast.n_merges == ref.n_merges
    assert fast.labels().tolist() == ref.labels().tolist()
    assert saved_bytes(fast) == saved_bytes(ref)
    assert ref.clusters == fast.clusters
    assert ref.stopped_early == fast.stopped_early
    assert ref.merges == fast.merges
    assert ref == fast
    for a, b in zip(ref.merges, fast.merges):
        assert a == b  # dataclass equality covers the goodness float
        # == treats -0.0/0.0 and nan loosely; pin the exact bits too
        assert math.isclose(a.goodness, b.goodness, rel_tol=0.0, abs_tol=0.0) or (
            np.float64(a.goodness).tobytes() == np.float64(b.goodness).tobytes()
        )


def saved_bytes(result) -> bytes:
    handle = io.StringIO()
    save_result(result, handle)
    return handle.getvalue().encode()


@st.composite
def link_problems(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    weighted = draw(st.booleans())
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    if weighted:
        counts = st.floats(
            min_value=0.05, max_value=8.0, allow_nan=False, width=64
        )
    else:
        counts = st.integers(min_value=1, max_value=6).map(float)
    raw = draw(st.dictionaries(pairs, counts, max_size=n * 3))
    edges = {(min(a, b), max(a, b)): c for (a, b), c in raw.items()}
    k = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    use_partition = draw(st.booleans())
    initial = None
    if use_partition and n > 1:
        rng = random.Random(seed)
        ids = list(range(n))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        initial = [
            ids[a:b] for a, b in zip([0] + cuts, cuts + [n]) if b > a
        ]
    return n, edges, k, initial


class TestMergeHistoryEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(link_problems())
    def test_normalized_goodness(self, problem):
        n, edges, k, initial = problem
        for f_theta in F_THETAS:
            links = make_links(n, edges)
            ref = heap_cluster_with_links(
                links, k=k, f_theta=f_theta, initial_clusters=initial
            )
            for fast in engine_results(
                cluster_with_links, links, k=k, f_theta=f_theta,
                initial_clusters=initial,
            ):
                assert_identical(ref, fast)

    @settings(max_examples=60, deadline=None)
    @given(link_problems())
    def test_naive_goodness(self, problem):
        n, edges, k, initial = problem
        links = make_links(n, edges)
        kwargs = dict(
            k=k, f_theta=default_f(0.5), initial_clusters=initial,
            goodness_fn=naive_goodness,
        )
        ref = heap_cluster_with_links(links, **kwargs)
        for fast in engine_results(cluster_with_links, links, **kwargs):
            assert_identical(ref, fast)

    @settings(max_examples=120, deadline=None)
    @given(replicated_components())
    def test_replicated_components(self, problem):
        """Equal-goodness heads from many components: the replay's
        ``(-goodness, u id)`` tie rule, resumed partitions, early stops
        -- and both engines count the same ``fit.cluster.*`` work."""
        n, triples, k, initial, goodness_fn, f_theta = problem
        links = link_table(n, triples)
        kwargs = dict(
            k=k, f_theta=f_theta, initial_clusters=initial,
            goodness_fn=goodness_fn,
        )
        ref = heap_cluster_with_links(links, **kwargs)

        def counted(**kwargs):
            registry = MetricsRegistry()
            result = cluster_with_links(links, registry=registry, **kwargs)
            return result, registry.snapshot()["counters"]

        (default, default_counts), (python, python_counts) = engine_results(
            counted, **kwargs
        )
        assert_identical(ref, default)
        assert_identical(ref, python)
        assert default_counts == python_counts
        assert default_counts["fit.cluster.merges"] == len(ref.merges)

    def test_stopped_early_disconnected(self):
        """Mushroom-style early stop: k below the component count."""
        edges = {(0, 1): 3.0, (1, 2): 2.0, (3, 4): 4.0, (5, 6): 1.0}
        links = make_links(8, edges)  # point 7 fully isolated
        ref = heap_cluster_with_links(links, k=1, f_theta=default_f(0.5))
        assert ref.stopped_early
        for fast in engine_results(
            cluster_with_links, links, k=1, f_theta=default_f(0.5)
        ):
            assert fast.stopped_early
            assert_identical(ref, fast)

    def test_partial_initial_clusters(self):
        """A starting partition that leaves points out: they stay
        unclustered (label -1) on every engine."""
        rng = random.Random(11)
        links = link_table(16, [
            (*rng.sample(range(16), 2), rng.randint(1, 4)) for _ in range(40)
        ])
        initial = [[0, 5], [1, 2, 9], [3], [4, 6], [10, 11, 15], [13]]
        for f_theta in F_THETAS:
            ref = heap_cluster_with_links(
                links, k=2, f_theta=f_theta, initial_clusters=initial
            )
            assert (ref.labels() == -1).sum() == 4
            for fast in engine_results(
                cluster_with_links, links, k=2, f_theta=f_theta,
                initial_clusters=initial,
            ):
                assert_identical(ref, fast)

    def test_initial_clusters_resume(self):
        """Resuming from a partial partition replays identically."""
        rng = random.Random(7)
        links = link_table(20, [
            (*rng.sample(range(20), 2), rng.randint(1, 4)) for _ in range(60)
        ])
        initial = [[0, 5, 7], [1, 2], [3], [4, 6, 8, 9], [10, 11],
                   [12, 13, 14], [15], [16, 17], [18, 19]]
        for f_theta in F_THETAS:
            ref = heap_cluster_with_links(
                links, k=3, f_theta=f_theta, initial_clusters=initial
            )
            for fast in engine_results(
                cluster_with_links, links, k=3, f_theta=f_theta,
                initial_clusters=initial,
            ):
                assert_identical(ref, fast)

    def test_many_components_replay(self):
        """15 fully linked components: the k-way replay across streams."""
        rng = random.Random(11)
        links = link_table(90, [
            (i, j, rng.randint(1, 5))
            for base in range(0, 90, 6)
            for i in range(base, base + 6)
            for j in range(i + 1, base + 6)
        ])
        for k in (1, 15, 40):
            ref = heap_cluster_with_links(links, k=k, f_theta=default_f(0.5))
            for fast in engine_results(
                cluster_with_links, links, k=k, f_theta=default_f(0.5)
            ):
                assert_identical(ref, fast)


class TestMergeMethodDispatch:
    def test_resolve(self, monkeypatch):
        import repro.native

        # built-in measures: native wherever the C tier probed clean,
        # the Python inner loop under the REPRO_NATIVE=0 kill switch --
        # silently either way; custom callables: the reference loop
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        backend = repro.native.available_backend()
        promoted = "fast" if backend is None else f"native:{backend}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert merge_engine(goodness) == promoted
            assert merge_engine(naive_goodness) == promoted
            assert merge_engine(reference_goodness) == "heap"
            monkeypatch.setenv("REPRO_NATIVE", "0")
            assert merge_engine(goodness) == "fast"
            assert merge_engine(naive_goodness) == "fast"
            assert merge_engine(reference_goodness) == "heap"

    def test_invalid_method_rejected(self):
        """No caller forces a merge engine: the old switch is gone."""
        links = make_links(3, {(0, 1): 1.0})
        with pytest.raises(TypeError, match="merge_method"):
            cluster_with_links(links, k=1, f_theta=0.5, merge_method="heap")
        with pytest.raises(TypeError, match="merge_method"):
            RockPipeline(k=2, theta=0.5, merge_method="heap")

    def test_forced_fast_with_custom_callable(self):
        """A custom goodness runs the reference loop; the component
        engine refuses one rather than reorder its evaluations."""
        links = make_links(6, {(0, 1): 2.0, (1, 2): 1.0, (3, 4): 3.0})

        def halved(count, ni, nj, f_theta):
            return count / (ni + nj)

        with pytest.raises(ValueError, match="built-in goodness"):
            fast_cluster_with_links(links, k=2, f_theta=0.3, goodness_fn=halved)
        registry = MetricsRegistry()
        routed = cluster_with_links(
            links, k=2, f_theta=0.3, goodness_fn=halved, registry=registry
        )
        ref = heap_cluster_with_links(links, k=2, f_theta=0.3, goodness_fn=halved)
        assert_identical(ref, routed)
        assert "fit.cluster.components" not in registry.snapshot()["counters"]


class TestKernelsBitwise:
    def test_power_table_matches_pow(self):
        for f_theta in [0.0, default_f(0.5), default_f(0.73)]:
            table = PowerTable(f_theta, 50)
            exponent = 1.0 + 2.0 * f_theta
            for i in range(51):
                assert table[i] == float(i) ** exponent
            arr = table.array()
            assert arr.shape == (51,)
            assert np.all(arr == np.array([table[i] for i in range(51)]))

    def test_normalized_kernel_matches_goodness(self):
        f_theta = default_f(0.5)
        kernel = NormalizedGoodnessKernel(f_theta, 40)
        bound = kernel.bind(20)
        for count, ni, nj in [(3.0, 1, 1), (2.5, 4, 9), (7.0, 9, 4), (1.0, 17, 3)]:
            expected = goodness(count, ni, nj, f_theta)
            assert kernel.scalar(count, ni, nj) == expected
            assert bound(count, ni, nj) == expected
        vec = kernel.vector(
            np.array([3.0, 2.5, 2.5]),
            np.array([1, 4, 9]),
            np.array([1, 9, 4]),
        )
        assert vec[0] == goodness(3.0, 1, 1, f_theta)
        assert vec[1] == goodness(2.5, 4, 9, f_theta)
        assert vec[2] == vec[1]  # bitwise symmetric in (ni, nj)

    def test_degenerate_denominator(self):
        """f(theta)=0: positive counts are infinitely good, zeros are 0."""
        kernel = NormalizedGoodnessKernel(0.0, 10)
        assert kernel.scalar(2.0, 1, 1) == math.inf
        assert kernel.scalar(0.0, 1, 1) == 0.0
        vec = kernel.vector(np.array([2.0, 0.0]), np.array([1, 1]), np.array([1, 1]))
        assert vec[0] == math.inf and vec[1] == 0.0

    def test_kernel_registry(self):
        assert merge_kernel_for(goodness, 0.5).name == "normalized"
        assert merge_kernel_for(naive_goodness, 0.5).name == "naive"
        assert merge_kernel_for(lambda c, ni, nj, f: c, 0.5) is None


class TestRegistryCounters:
    def test_component_and_heap_counters(self):
        links = make_links(
            10, {(0, 1): 2.0, (1, 2): 1.0, (3, 4): 3.0, (5, 6): 1.0, (6, 7): 2.0}
        )
        registry = MetricsRegistry()
        fast_cluster_with_links(
            links, k=3, f_theta=default_f(0.5), registry=registry
        )
        counters = registry.snapshot()["counters"]
        assert counters["fit.cluster.components"] == 3
        assert counters["fit.cluster.heap_ops"] > 0


    def test_merges_counter_covers_the_weeding_pause(self, monkeypatch):
        """A weeding fit clusters twice; ``fit.cluster.merges`` counts
        both calls, like ``heap_ops`` and ``components``."""
        import repro.core.pipeline as pipeline_mod
        from repro.obs import Tracer

        calls = []
        real = pipeline_mod.cluster_with_links

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(len(result.merges))
            return result

        monkeypatch.setattr(pipeline_mod, "cluster_with_links", spy)
        data = TestEngineIntegration()._baskets(n_clusters=40, per=8)
        tracer = Tracer()
        RockPipeline(k=40, theta=0.5, min_cluster_size=3, seed=1).fit(
            data, tracer=tracer
        )
        counters = tracer.registry.snapshot()["counters"]
        assert len(calls) == 2 and calls[0] > 0
        assert counters["fit.cluster.merges"] == sum(calls)


class TestEngineIntegration:
    def _baskets(self, n_clusters: int = 4, per: int = 12, seed: int = 3):
        rng = np.random.default_rng(seed)
        txns = []
        for c in range(n_clusters):
            pool = np.arange(c * 12, c * 12 + 12)
            for _ in range(per):
                txns.append(Transaction(rng.choice(pool, 8, replace=False).tolist()))
        return TransactionDataset(txns)

    def test_rock_end_to_end(self):
        data = self._baskets()
        ref = rock(data, k=4, theta=0.5, goodness_fn=reference_goodness)
        for fast in engine_results(rock, data, k=4, theta=0.5):
            assert_identical(ref, fast)

    def test_pipeline_with_weeding_resume(self):
        """The weed-then-resume path goes through every engine too."""
        data = self._baskets(n_clusters=5, per=10)
        kwargs = dict(
            k=5, theta=0.5, sample_size=40, min_cluster_size=3, seed=9
        )
        ref = RockPipeline(goodness_fn=reference_goodness, **kwargs).fit(data)
        assert ref.backends["merge"] == "heap"
        for fast in engine_results(
            lambda: RockPipeline(**kwargs).fit(data)
        ):
            assert fast.backends["merge"] != "heap"
            assert ref.clusters == fast.clusters
            assert np.array_equal(ref.labels, fast.labels)
            assert ref.outlier_indices == fast.outlier_indices

    def test_model_metadata_records_merge_method(self):
        """The model records the engine that ran, not a requested one."""
        from repro.serve.model import model_from_result

        data = self._baskets()
        pipeline = RockPipeline(k=4, theta=0.5, seed=1)
        result = pipeline.fit(data)
        model = model_from_result(pipeline, result, points=data)
        assert "merge_method" not in model.metadata
        assert model.metadata["backends"]["merge"] == merge_engine(goodness)

    def test_estimator_param_roundtrip(self):
        from repro.estimator import RockClusterer

        est = RockClusterer(n_clusters=2)
        params = est.get_params()
        for removed in ("merge_method", "fit_mode", "shard_block_rows",
                        "spill_dir", "max_retries"):
            assert removed not in params
            with pytest.raises(ValueError, match=removed):
                est.set_params(**{removed: None})
        assert RockClusterer(**params).get_params() == params


class TestLabelsFromClusters:
    def test_basic(self):
        labels = labels_from_clusters([[0, 2], [1], []], 5)
        assert labels.tolist() == [0, 1, 0, -1, -1]
        assert labels.dtype == np.int64

    def test_empty(self):
        assert labels_from_clusters([], 3).tolist() == [-1, -1, -1]
        assert labels_from_clusters([[]], 0).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-1, max_value=5), max_size=30))
    def test_clusters_from_labels_inverts_it(self, raw):
        # relabel so clusters 0..K-1 are all non-empty
        used = sorted(set(raw) - {-1})
        labels = np.array(
            [used.index(x) if x >= 0 else -1 for x in raw], dtype=np.int64
        )
        clusters = clusters_from_labels(labels)
        assert len(clusters) == len(used)
        assert all(c == sorted(c) and c for c in clusters)
        assert labels_from_clusters(clusters, len(raw)).tolist() == labels.tolist()
