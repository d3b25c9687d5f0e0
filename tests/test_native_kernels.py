"""Native kernels vs the reference paths -- byte-for-byte equivalence.

The :mod:`repro.native` kernels are only admissible as pure
optimisations: for every input the native fused pass must produce the
same survivor sets, neighbor lists, degrees and link counts as
:func:`repro.parallel.links.fused_neighbor_links`, and the native merge
kernel must replay the same merge history -- bitwise-equal goodness
floats and identical ``heap_ops`` accounting -- as both the Figure 3
reference loop and the component engine's Python inner loop.  The
hypothesis properties mirror ``tests/test_merge_engine.py`` and
``tests/test_parallel_fit.py`` and run against the C tier wherever it
probes clean (a system compiler exists and ``REPRO_NATIVE`` is not
off); elsewhere the module skips, and
``tests/test_native_fallback.py::TestProbe::test_probe_passes_where_a_compiler_exists``
fails instead where a compiler exists.
"""

import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import transaction_csr
from repro.core.goodness import (
    default_f,
    goodness,
    merge_kernel_for,
    naive_goodness,
)
from repro.core.links import LinkTable
from repro.core.merge import (
    component_merge_stream,
    merge_engine,
    pack_components,
)
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links, heap_cluster_with_links, rock
from repro.core.serialization import save_result
from repro.core.similarity import JaccardSimilarity, OverlapSimilarity
from repro.data.transactions import Transaction, TransactionDataset
from repro.native import get_kernels
from repro.native.links import native_fit_supported, native_neighbor_links
from repro.native.merge import native_component_streams
from repro.obs.registry import MetricsRegistry
from repro.parallel.links import fused_neighbor_links
from tests.linktables import link_table, replicated_components
from tests.threads import THREAD_COUNTS, forced_threads

# the probed tier; parametrized tests carry its name ("cext") as their id
KERNELS = get_kernels()
AVAILABLE = [] if KERNELS is None else [KERNELS.name]

pytestmark = pytest.mark.skipif(
    KERNELS is None, reason="no native backend available on this machine"
)


item_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=6),
    min_size=1,
    max_size=40,
)

THETAS = [0.2, 0.25, 0.5, 0.75, 1.0]


def tables_equal(a: LinkTable, b: LinkTable) -> bool:
    return a.n == b.n and sorted(a.pairs()) == sorted(b.pairs())


def saved_bytes(result) -> bytes:
    handle = io.StringIO()
    save_result(result, handle)
    return handle.getvalue().encode()


def assert_identical(ref, other) -> None:
    """Byte-for-byte RockResult equality, goodness floats included:
    the clusters, the merge history, the labels and the saved bytes."""
    assert other.n_merges == ref.n_merges
    assert other.labels().tolist() == ref.labels().tolist()
    assert saved_bytes(other) == saved_bytes(ref)
    assert ref.clusters == other.clusters
    assert ref.stopped_early == other.stopped_early
    assert ref.merges == other.merges
    for a, b in zip(ref.merges, other.merges):
        assert a == b
        assert math.isclose(a.goodness, b.goodness, rel_tol=0.0, abs_tol=0.0) or (
            np.float64(a.goodness).tobytes() == np.float64(b.goodness).tobytes()
        )


# -- the fused pass: native block kernel vs scipy-product reference -----------


class TestNativeFusedPass:
    @settings(max_examples=40, deadline=None)
    @given(
        sets=item_sets,
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 64]),
        overlap=st.booleans(),
        threads=st.sampled_from(THREAD_COUNTS),
    )
    def test_links_degrees_graph_identical(
        self, sets, theta, block_size, overlap, threads
    ):
        dataset = TransactionDataset([Transaction(s) for s in sets])
        similarity = OverlapSimilarity() if overlap else JaccardSimilarity()
        reference = fused_neighbor_links(
            dataset, theta, similarity=similarity, block_size=len(sets),
            keep_graph=True,
        )
        with forced_threads(threads):
            native = native_neighbor_links(
                dataset, theta, similarity=similarity,
                block_size=block_size, keep_graph=True,
            )
        assert tables_equal(native.links, reference.links)
        assert np.array_equal(native.degrees, reference.degrees)
        for a, b in zip(
            native.graph.neighbor_lists(), reference.graph.neighbor_lists()
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_worker_count_invariance(self, backend):
        """Any count of block threads, any block size: the serial bytes."""
        rng = np.random.default_rng(5)
        dataset = TransactionDataset([
            Transaction(frozenset(
                map(int, rng.choice(30, size=rng.integers(1, 8), replace=False))
            ))
            for _ in range(120)
        ])
        serial = native_neighbor_links(dataset, 0.4, block_size=120)
        reference = fused_neighbor_links(dataset, 0.4, block_size=120)
        assert tables_equal(serial.links, reference.links)
        expected = (
            serial.links.codes.tobytes(),
            serial.links.counts.tobytes(),
            serial.degrees.tobytes(),
        )
        for threads in THREAD_COUNTS + [4]:
            for block_size in (1, 16, 50):
                with forced_threads(threads):
                    run = native_neighbor_links(
                        dataset, 0.4, block_size=block_size
                    )
                assert (
                    run.links.codes.tobytes(),
                    run.links.counts.tobytes(),
                    run.degrees.tobytes(),
                ) == expected

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_csr_roundtrip_and_metrics(self, backend):
        dataset = TransactionDataset(
            [Transaction({1, 2, 3}), Transaction({2, 3, 4}), Transaction({9})]
        )
        csr = transaction_csr(dataset)
        assert csr is not None and csr.n == 3
        assert np.array_equal(np.diff(csr.indptr), csr.sizes)
        assert csr.t_indices.size == csr.indices.size
        registry = MetricsRegistry()
        native_neighbor_links(dataset, 0.5, registry=registry)
        counters = registry.snapshot()["counters"]
        assert counters["fit.native.blocks"] >= 1
        assert counters["fit.native.rows"] == 3

    def test_unsupported_configs_rejected(self):
        ok, reason = native_fit_supported([Transaction({1, 2})], 0.0)
        assert not ok and "theta" in reason
        ok, reason = native_fit_supported(
            [Transaction({1, 2})], 0.5, similarity=lambda a, b: 1.0
        )
        assert not ok
        with pytest.raises(ValueError, match="native fit unsupported"):
            native_neighbor_links([Transaction({1, 2})], 0.0)


# -- the merge engine: native component loop vs heap and fast engines ---------


@st.composite
def link_problems(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    weighted = draw(st.booleans())
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    if weighted:
        counts = st.floats(min_value=0.05, max_value=8.0, allow_nan=False, width=64)
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
        initial = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n]) if b > a]
    return n, edges, k, initial


def make_links(n: int, edges: dict) -> LinkTable:
    return link_table(n, [(i, j, count) for (i, j), count in edges.items()])


class TestNativeMergeEngine:
    @settings(max_examples=60, deadline=None)
    @given(problem=link_problems(), naive=st.booleans())
    def test_merge_history_identical(self, problem, naive):
        n, edges, k, initial = problem
        goodness_fn = naive_goodness if naive else goodness
        kwargs = dict(
            k=k, f_theta=default_f(0.5), initial_clusters=initial,
            goodness_fn=goodness_fn,
        )
        links = make_links(n, edges)
        ref = heap_cluster_with_links(links, **kwargs)
        native = cluster_with_links(links, **kwargs)  # the default engine
        assert_identical(ref, native)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_NATIVE", "0")
            fast = cluster_with_links(links, **kwargs)
        assert_identical(ref, fast)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_streams_and_heap_ops_identical(self, backend):
        """The native streams match the Python ones field for field."""
        rng = random.Random(11)
        links = link_table(90, [
            (i, j, rng.randint(1, 5))
            for base in range(0, 90, 6)
            for i in range(base, base + 6)
            for j in range(i + 1, base + 6)
        ])
        sizes = np.ones(90, dtype=np.int64)
        lo, hi, counts = links.pair_arrays()
        packed = pack_components(90, sizes, lo, hi, counts)
        kernel = merge_kernel_for(goodness, default_f(0.5), n_max=90)
        serial = [component_merge_stream(p, kernel) for p in packed.problems()]
        native = native_component_streams(packed, kernel, KERNELS)
        assert len(native) == len(serial)
        for a, b in zip(serial, native):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)
            assert a.goodness.tobytes() == b.goodness.tobytes()
            assert np.array_equal(a.sizes, b.sizes)
            assert a.heap_ops == b.heap_ops

    @settings(max_examples=80, deadline=None)
    @given(problem=replicated_components())
    def test_packed_call_on_tied_components(self, problem):
        """One packed call over many tied components: every stream
        equals the Python inner loop's, and the replayed result and
        counters equal the reference loop's and the Python engine's."""
        n, triples, k, initial, goodness_fn, f_theta = problem
        links = link_table(n, triples)
        kwargs = dict(
            k=k, f_theta=f_theta, initial_clusters=initial,
            goodness_fn=goodness_fn,
        )
        if initial is None:
            lo, hi, counts = links.pair_arrays()
            packed = pack_components(
                n, np.ones(n, dtype=np.int64), lo, hi, counts
            )
            kernel = merge_kernel_for(goodness_fn, f_theta, n_max=n)
            native = native_component_streams(packed, kernel, KERNELS)
            serial = [
                component_merge_stream(p, kernel) for p in packed.problems()
            ]
            for a, b in zip(serial, native, strict=True):
                assert np.array_equal(a.left, b.left)
                assert np.array_equal(a.right, b.right)
                assert a.goodness.tobytes() == b.goodness.tobytes()
                assert np.array_equal(a.sizes, b.sizes)
                assert a.heap_ops == b.heap_ops
        ref = heap_cluster_with_links(links, **kwargs)
        counters = []
        for env in ("1", "0"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("REPRO_NATIVE", env)
                registry = MetricsRegistry()
                result = cluster_with_links(links, registry=registry, **kwargs)
            assert_identical(ref, result)
            counters.append(registry.snapshot()["counters"])
        assert counters[0] == counters[1]

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_stopped_early_disconnected(self, backend):
        edges = {(0, 1): 3.0, (1, 2): 2.0, (3, 4): 4.0, (5, 6): 1.0}
        links = make_links(8, edges)  # point 7 fully isolated
        ref = heap_cluster_with_links(links, k=1, f_theta=default_f(0.5))
        native = cluster_with_links(links, k=1, f_theta=default_f(0.5))
        assert ref.stopped_early and native.stopped_early
        assert_identical(ref, native)

    def test_merge_supported_matrix(self):
        """Both built-in measures run the native kernel; a custom
        callable runs the reference loop and never reaches it."""
        native = f"native:{KERNELS.name}"
        assert merge_engine(goodness) == native
        assert merge_engine(naive_goodness) == native
        assert merge_engine(lambda c, ni, nj, f: c) == "heap"


# -- the serving assign kernel: fused gather/threshold/argmax ----------------


class TestNativeAssignKernel:
    def test_probe_advertises_assign_block(self):
        """The probed tier carries the serving assign kernel.

        The probe's smoke test exercises ``assign_block`` before the
        tier is offered at all, so a namespace without it (or with a
        broken one) must never come out of :func:`get_kernels`.
        """
        assert KERNELS.name == "cext"
        for fn in (
            "score_block", "mirror_neighbors", "link_rows",
            "merge_components", "assign_block",
        ):
            assert callable(getattr(KERNELS, fn)), fn

    @settings(max_examples=40, deadline=None)
    @given(
        sets=item_sets,
        points=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=20), max_size=6),
            min_size=1,
            max_size=25,
        ),
        theta=st.sampled_from(THETAS),
        block_size=st.sampled_from([1, 3, 8192]),
    )
    def test_assign_block_matches_pruned_path(
        self, sets, points, theta, block_size
    ):
        from repro.core.labeling import ClusterLabeler
        from repro.data.transactions import Transaction as T
        from tests.tiers import forced_tier

        half = max(1, len(sets) // 2)
        labeling_sets = [
            [T(s) for s in sets[:half]], [T(s) for s in sets[half:]]
        ]
        labeler = ClusterLabeler(labeling_sets, theta, f=lambda _t: 0.4)
        fast = labeler.assignment_index
        batch = [T(p) for p in points]
        with forced_tier("pruned"):
            ref_labels, ref_best = fast.assign_with_scores(
                batch, block_size=block_size
            )
        assert ref_labels.tolist() == [labeler.assign(p) for p in batch]
        with forced_tier("native"):
            labels, best = fast.assign_with_scores(batch, block_size=block_size)
        assert np.array_equal(labels, ref_labels)
        assert best.tobytes() == ref_best.tobytes()


def _mismatched(a) -> np.ndarray:
    """``a`` in the other integer width (float64 stays float64), as a
    non-contiguous view: a binding must convert it, not misread it."""
    a = np.asarray(a)
    other = {np.dtype(np.int64): np.int32, np.dtype(np.int32): np.int64}
    wide = np.empty((a.size, 2), dtype=other.get(a.dtype, a.dtype))
    wide[:, 0] = a
    return wide[:, 0]


class TestAddressBindings:
    """The bindings pass raw addresses; each converts its array
    arguments to the declared dtype, C-contiguous, before the call."""

    def test_assign_block_converts_its_inputs(self):
        from repro.core.labeling import ClusterLabeler
        from repro.serve.index import encode_query

        rng = random.Random(5)
        labeling_sets = [
            [Transaction(rng.sample(range(30), rng.randint(1, 8)))
             for _ in range(6)]
            for _ in range(3)
        ]
        batch = [Transaction(rng.sample(range(36), rng.randint(0, 9)))
                 for _ in range(40)]
        labeler = ClusterLabeler(labeling_sets, 0.3, f=lambda _t: 0.4)
        fast = labeler.assignment_index
        read_only = np.array(fast.rep_items)
        read_only.flags.writeable = False
        labels, best, _ = KERNELS.assign_block(
            *(_mismatched(a) for a in encode_query(batch, fast.vocabulary)),
            _mismatched(fast.pre_indptr),
            _mismatched(fast.pre_reps),
            _mismatched(fast.rep_indptr),
            read_only,
            _mismatched(fast.rep_cluster),
            _mismatched(fast.normalisers),
            fast.theta,
        )
        expected = [labeler.assign(p) for p in batch]
        assert labels.tolist() == expected
        assert 0 < expected.count(-1) < len(batch)
        expected_best = np.array([
            0.0 if label < 0 else labeler.scores(p)[label]
            for p, label in zip(batch, expected)
        ])
        assert best.tobytes() == expected_best.tobytes()

    def test_link_rows_converts_its_inputs(self):
        rng = np.random.default_rng(3)
        n = 40
        upper = np.triu(rng.random((n, n)) < 0.2, 1)
        adjacency = upper | upper.T
        indptr = np.concatenate([[0], np.cumsum(adjacency.sum(axis=1))])
        indices = np.flatnonzero(adjacency) % n  # ascending within rows
        codes, counts = KERNELS.link_rows(
            _mismatched(indptr.astype(np.int64)),
            _mismatched(indices.astype(np.int32)),
            n,
        )
        square = adjacency.astype(np.int64) @ adjacency.astype(np.int64)
        expected = np.flatnonzero(np.triu(square, 1))
        assert codes.tolist() == expected.tolist()
        assert counts.tolist() == square.ravel()[expected].tolist()

    def test_merge_components_converts_its_inputs(self):
        from dataclasses import fields, replace

        from repro.native.merge import native_merge_components

        rng = random.Random(11)
        links = link_table(60, [
            (i, j, rng.randint(1, 5))
            for base in range(0, 60, 6)
            for i in range(base, base + 6)
            for j in range(i + 1, base + 6)
        ])
        lo, hi, counts = links.pair_arrays()
        packed = pack_components(60, np.ones(60, dtype=np.int64), lo, hi, counts)
        kernel = merge_kernel_for(goodness, default_f(0.5), n_max=60)
        converted = replace(packed, **{
            f.name: _mismatched(getattr(packed, f.name))
            for f in fields(packed) if f.name != "index"
        })
        ref = native_merge_components(packed, kernel, KERNELS, 4, 60)
        run = native_merge_components(converted, kernel, KERNELS, 4, 60)
        assert ref.left.size > 0
        for name in ("left", "right", "sizes", "roots"):
            assert np.array_equal(getattr(ref, name), getattr(run, name)), name
        assert ref.goodness.tobytes() == run.goodness.tobytes()
        assert (ref.heap_ops, ref.stopped_early) == (run.heap_ops, run.stopped_early)


# -- end to end ---------------------------------------------------------------


class TestNativeEndToEnd:
    def _baskets(self, n_clusters: int = 4, per: int = 12, seed: int = 3):
        rng = np.random.default_rng(seed)
        txns = []
        for c in range(n_clusters):
            pool = np.arange(c * 12, c * 12 + 12)
            for _ in range(per):
                txns.append(
                    Transaction(rng.choice(pool, 8, replace=False).tolist())
                )
        return TransactionDataset(txns)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_rock_native_modes(self, backend, monkeypatch):
        data = self._baskets()
        native = rock(data, k=4, theta=0.5, memory_budget=1)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        fused = rock(data, k=4, theta=0.5, memory_budget=1)
        assert_identical(fused, native)
        ref = rock(
            data, k=4, theta=0.5, memory_budget=1,
            goodness_fn=lambda c, ni, nj, f: goodness(c, ni, nj, f),
        )  # a custom callable: the reference heap loop
        assert_identical(ref, native)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_pipeline_native_equals_fused(self, backend, monkeypatch):
        # past the memory budget the planner picks native, and fused
        # under REPRO_NATIVE=0
        data = self._baskets(n_clusters=5, per=10)
        kwargs = dict(
            k=5, theta=0.5, sample_size=40, min_cluster_size=3, seed=9,
            memory_budget=1,
        )
        native = RockPipeline(**kwargs).fit(data)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        ref = RockPipeline(**kwargs).fit(data)
        assert ref.clusters == native.clusters
        assert np.array_equal(ref.labels, native.labels)
        assert ref.outlier_indices == native.outlier_indices
        assert native.backends["fit"] == f"native:{backend}"
        assert native.backends["merge"] == f"native:{backend}"
        assert ref.backends["fit"] == "fused"
        assert ref.backends["merge"] == "fast"


# -- the cluster phase as arrays ----------------------------------------------

# fit-full's shape: 210 planted clusters x 8 baskets, 10 items each from
# a 14-item pool of a 400-item vocabulary, fitted whole at k = 210
_COLD_FIT = """
import sys

import numpy as np

from repro.core import RockPipeline
from repro.data.transactions import TransactionDataset

rng = np.random.default_rng(1)
baskets = []
for _ in range(210):
    pool = rng.choice(400, size=14, replace=False)
    baskets.extend(
        frozenset(rng.choice(pool, size=10, replace=False).tolist())
        for _ in range(8)
    )
fit = RockPipeline(k=210, theta=0.5, seed=1).fit(TransactionDataset(baskets))
assert fit.backends["merge"] == "native:cext", fit.backends
assert fit.n_clusters == 210, fit.n_clusters
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestClusterPhaseArrays:
    def test_fresh_fit_imports_no_scipy(self):
        """A C-tier fit in a fresh process loads no scipy module: the
        component labels come from the union-find kernel."""
        src = str(Path(__import__("repro").__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        run = subprocess.run(
            [sys.executable, "-c", _COLD_FIT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_component_labels_rejects_outside_nodes(self):
        for lo, hi in (([0], [3]), ([-1], [1]), ([0, 1], [2])):
            with pytest.raises(ValueError, match="component_labels"):
                KERNELS.component_labels(3, np.array(lo), np.array(hi))

    def test_merges_and_clusters_built_on_access(self):
        """The engine's result holds the kernel's arrays: counting,
        labels and saving build no MergeStep or cluster list."""
        links = make_links(
            12, {(0, 1): 3.0, (1, 2): 2.0, (3, 4): 4.0, (5, 6): 1.0, (6, 7): 2.0}
        )
        result = cluster_with_links(links, k=2, f_theta=default_f(0.5))
        ref = heap_cluster_with_links(links, k=2, f_theta=default_f(0.5))
        assert result.merge_arrays is not None
        assert result.n_merges == ref.n_merges == len(ref.merges)
        assert saved_bytes(result) != b""
        assert result.labels().tolist() == ref.labels().tolist()
        assert result._merges is None
        assert result.merges == ref.merges
        assert result.clusters == ref.clusters
        assert result.merges is result.merges  # cached
