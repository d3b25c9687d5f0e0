"""The one item encoder and every integer view derived from it.

Each view -- a dataset's CSR and indicator matrix, the fit's
``TransactionCSR`` and its transpose, the labeling index's rows, the
query CSR against either index's vocabulary (by column remap and by
walk) and the on-disk store -- must hold exactly the items
:func:`as_item_set` reads from each point.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RockPipeline, rock
from repro.core.encoding import (
    TransactionCSR,
    as_item_set,
    encode_items,
    encode_query,
    transaction_csr,
)
from repro.core.labeling import ClusterLabeler, LabelingIndex
from repro.core.pipeline import FitPlan, resolve_memory_budget, run_fit_plan
from repro.data.records import MISSING, CategoricalDataset, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.datasets import small_synthetic_basket
from repro.native import get_kernels
from repro.obs.trace import Tracer
from repro.serve.index import AssignmentIndex
from repro.data.store import TransactionStore


@contextmanager
def native(enabled: bool):
    """Run with the C tier on (``REPRO_NATIVE`` unset) or off (``=0``)."""
    with mock.patch.dict(os.environ):
        if enabled:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = "0"
        yield


def decode(indptr, codes, vocabulary):
    """Row ``i`` of a code CSR as the set of the items its codes name."""
    return [
        frozenset(vocabulary[c] for c in codes[indptr[i] : indptr[i + 1]])
        for i in range(len(indptr) - 1)
    ]


def columns(indptr, codes):
    """The CSR's non-empty columns as row sets: equal up to a column
    permutation iff the sorted lists are equal."""
    rows_of: dict[int, set[int]] = {}
    for i in range(len(indptr) - 1):
        for c in codes[indptr[i] : indptr[i + 1]].tolist():
            rows_of.setdefault(c, set()).add(i)
    return sorted(sorted(r) for r in rows_of.values())


def oracle_columns(item_sets):
    rows_of: dict[object, set[int]] = {}
    for i, items in enumerate(item_sets):
        for item in items:
            rows_of.setdefault(item, set()).add(i)
    return sorted(sorted(r) for r in rows_of.values())


def inverse(code_of):
    vocabulary = [None] * len(code_of)
    for item, code in code_of.items():
        vocabulary[code] = item
    return vocabulary


def assert_ascending_rows(indptr, codes):
    for i in range(len(indptr) - 1):
        row = codes[indptr[i] : indptr[i + 1]]
        assert (np.diff(row) > 0).all()


# sortable items, or mixed ints and strings (the derived vocabulary then
# keeps first-seen order)
sortable_items = st.integers(0, 9)
mixed_items = st.one_of(st.integers(0, 6), st.sampled_from(["a", "b", "c"]))
# query items outside every vocabulary drawn above
oov_items = st.one_of(st.integers(50, 53), st.sampled_from(["y", "z"]))

SCHEMA = CategoricalSchema(["color", "size", "shape"])
record_values = st.lists(
    st.sampled_from(["x", "y", "z", MISSING]), min_size=3, max_size=3
)


@st.composite
def item_points(draw):
    """``(points, queries, vocabulary)``: item-set points of one kind,
    query points of the same kind holding some out-of-vocabulary items,
    and an explicit vocabulary (or ``None``) for transaction inputs."""
    kind = draw(st.sampled_from(["transactions", "sets", "records"]))
    if kind == "records":
        rows = draw(st.lists(record_values, min_size=1, max_size=12))
        queries = draw(st.lists(record_values, max_size=6))
        data = CategoricalDataset(SCHEMA, rows + queries)
        records = list(data)
        return records[: len(rows)], records[len(rows) :], None
    items = draw(st.sampled_from([sortable_items, mixed_items]))
    rows = draw(st.lists(st.frozensets(items, max_size=6), min_size=1, max_size=12))
    queries = draw(
        st.lists(st.frozensets(st.one_of(items, oov_items), max_size=6), max_size=6)
    )
    vocabulary = None
    if draw(st.booleans()):
        union = list(dict.fromkeys(item for row in rows for item in row))
        extra = draw(st.lists(st.integers(20, 25), unique=True, max_size=3))
        vocabulary = draw(st.permutations(union + extra))
    if kind == "transactions":
        rows = [Transaction(r) for r in rows]
        queries = [Transaction(q) for q in queries]
    return rows, queries, vocabulary


class TestDerivedViews:
    @settings(max_examples=150, deadline=None)
    @given(item_points())
    def test_every_view_holds_the_points_items(self, drawn):
        points, queries, vocabulary = drawn
        expected = [as_item_set(p) for p in points]
        expected_queries = [as_item_set(q) for q in queries]

        # the fit's encoding of the loose points (records as a categorical
        # dataset): equal up to a column permutation
        records = not isinstance(points[0], (Transaction, frozenset))
        csr = transaction_csr(
            CategoricalDataset(SCHEMA, points) if records else points
        )
        assert columns(csr.indptr, csr.indices) == oracle_columns(expected)
        assert csr.sizes.tolist() == [len(s) for s in expected]
        assert_ascending_rows(csr.indptr, csr.indices)
        transpose = [[] for _ in range(csr.n_items)]
        for i in range(csr.n):
            for c in csr.indices[csr.indptr[i] : csr.indptr[i + 1]].tolist():
                transpose[c].append(i)
        assert [
            csr.t_indices[csr.t_indptr[c] : csr.t_indptr[c + 1]].tolist()
            for c in range(csr.n_items)
        ] == transpose

        # the labeling index: representatives and a query batch
        index = LabelingIndex([points], theta=0.5, f_theta=1.0)
        rep_vocabulary = inverse(index.vocabulary)
        assert [
            frozenset(rep_vocabulary[c] for c in np.flatnonzero(row))
            for row in index.rep_matrix
        ] == expected
        assert index.rep_sizes.tolist() == [len(s) for s in expected]
        q_indptr, q_codes, q_sizes = encode_query(queries, index.vocabulary)
        assert decode(q_indptr, q_codes, rep_vocabulary) == [
            q & index.vocabulary.keys() for q in expected_queries
        ]
        assert q_sizes.tolist() == [len(q) for q in expected_queries]

        # the assignment index's query CSR, by walk
        fast = AssignmentIndex(index)
        ranked = inverse(fast.vocabulary)
        q_indptr, q_items, q_sizes = encode_query(queries, fast.vocabulary)
        in_vocabulary = [q & fast.vocabulary.keys() for q in expected_queries]
        assert decode(q_indptr, q_items, ranked) == in_vocabulary
        assert q_sizes.tolist() == [len(q) for q in expected_queries]

        if not records:
            self._check_dataset_views(points, queries, vocabulary, fast, ranked)

    def _check_dataset_views(self, points, queries, vocabulary, fast, ranked):
        expected = [as_item_set(p) for p in points]
        dataset = TransactionDataset(points, vocabulary=vocabulary)
        if vocabulary is not None:
            assert dataset.vocabulary == list(vocabulary)
        indptr, codes = dataset.csr
        assert decode(indptr, codes, dataset.vocabulary) == expected
        assert_ascending_rows(indptr, codes)
        assert dataset.sizes().tolist() == [len(s) for s in expected]
        assert [
            frozenset(dataset.vocabulary[c] for c in np.flatnonzero(row))
            for row in dataset.indicator_matrix()
        ] == expected
        csr = transaction_csr(dataset)
        assert decode(csr.indptr, csr.indices, dataset.vocabulary) == expected
        # a row gather carries the same rows, in the requested order
        # (negative indices wrap once; beyond either end is an IndexError)
        n = len(points)
        order = list(range(n))[::-2] + [-1, -n]
        assert decode(*dataset.subset(order).csr, dataset.vocabulary) == [
            expected[i] for i in order
        ]
        assert list(dataset.subset(order)) == [dataset[i] for i in order]
        for beyond in (-n - 1, n, -2 * n - 2):
            with pytest.raises(IndexError):
                dataset.subset([0, beyond])

        # the assignment index's query CSR, by column remap of a dataset
        # (queries hold items outside the dataset's vocabulary: give the
        # query dataset its own)
        query_set = TransactionDataset(queries)
        q_indptr, q_items, q_sizes = encode_query(query_set, fast.vocabulary)
        expected_queries = [as_item_set(q) for q in queries]
        assert decode(q_indptr, q_items, ranked) == [
            q & fast.vocabulary.keys() for q in expected_queries
        ]
        assert q_sizes.tolist() == [len(q) for q in expected_queries]
        walked = encode_query(list(query_set), fast.vocabulary)
        assert decode(*walked[:2], ranked) == decode(q_indptr, q_items, ranked)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
            min_size=1, max_size=10,
        )
    )
    def test_store_rows_are_item_sets(self, tmp_path_factory, rows):
        """Store rows read each row as the set of its items, repeats and all."""
        path = tmp_path_factory.mktemp("store")
        loose = TransactionStore.write(path / "loose", rows, chunk_rows=3)
        dataset = TransactionDataset(rows)
        whole = TransactionStore.write(path / "dataset", dataset)
        expected = [frozenset(r) for r in rows]
        for store in (loose, whole):
            assert decode(*store.csr, store.vocabulary) == expected
            assert store.sizes().tolist() == [len(s) for s in expected]
            assert_ascending_rows(*store.csr)
        np.testing.assert_array_equal(whole.csr[1], dataset.csr[1])


class TestMixedRowsRaise:
    """A row ``as_item_set`` rejects is an error on every route, not a
    row of repeated codes."""

    points = [frozenset({1, 2, 3}), [1, 1, 2, 3], frozenset({7, 8})]

    def test_encoders_raise_like_the_oracle(self):
        from repro.core.similarity import JaccardSimilarity

        with pytest.raises(TypeError, match="cannot interpret list"):
            JaccardSimilarity()(self.points[0], self.points[1])
        with pytest.raises(TypeError, match="cannot interpret list"):
            transaction_csr(self.points)
        with pytest.raises(TypeError, match="cannot interpret list"):
            encode_items(self.points, {})

    @pytest.mark.parametrize("route", ["dense", "native", "fused"])
    def test_every_route_raises(self, route):
        if route == "native" and get_kernels() is None:
            pytest.skip("no C tier")
        plan = FitPlan(route, route, resolve_memory_budget(None), "test")
        with pytest.raises(TypeError, match="cannot interpret list"):
            run_fit_plan(plan, self.points, 0.5, tracer=Tracer())

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pipeline_fit_raises(self, enabled):
        with native(enabled), pytest.raises(TypeError, match="cannot interpret list"):
            RockPipeline(k=2, theta=0.5).fit(self.points)


class TestStoreRepeats:
    def test_repeated_items_are_stored_once(self, tmp_path):
        store = TransactionStore.write(tmp_path / "s", [["a", "a", "b"], ["a", "b"]])
        assert store.csr[0].tolist() == [0, 2, 4]
        assert store.csr[1].tolist() == [0, 1, 0, 1]

    def test_repeated_vocabulary_item_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            TransactionStore.write(
                tmp_path / "s", [["a", "b"]], vocabulary=["a", "b", "a"]
            )
        with pytest.raises(ValueError, match="duplicate"):
            TransactionDataset([["a", "b"]], vocabulary=["a", "b", "a"])

    def test_list_with_repeats_fits_like_its_dataset(self, tmp_path):
        basket = small_synthetic_basket(
            n_clusters=3, cluster_size=40, n_outliers=6, seed=2
        )
        # every row lists its first item twice
        rows = [sorted(t) + sorted(t)[:1] for t in basket.transactions]
        dataset = TransactionDataset(rows)
        from_list = TransactionStore.write(tmp_path / "list", rows, chunk_rows=17)
        from_dataset = TransactionStore.write(tmp_path / "dataset", dataset)
        np.testing.assert_array_equal(from_list.csr[0], from_dataset.csr[0])
        assert decode(*from_list.csr, from_list.vocabulary) == decode(
            *from_dataset.csr, from_dataset.vocabulary
        )
        stored = rock(from_list, k=3, theta=0.5)
        in_memory = rock(dataset, k=3, theta=0.5)
        np.testing.assert_array_equal(stored.labels(), in_memory.labels())
        assert stored.merges == in_memory.merges


class TestLabelScanInput:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_dataset_and_list_label_alike(self, enabled):
        basket = small_synthetic_basket(
            n_clusters=4, cluster_size=60, n_outliers=20, seed=5
        )
        dataset = basket.transactions
        with native(enabled), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = RockPipeline(
                k=4, theta=0.5, sample_size=80, min_cluster_size=5, seed=1
            ).fit(dataset)
            # queries reach items the representatives never hold
            rest = dataset.subset(range(1, len(dataset), 2))
            as_dataset = ClusterLabeler(fit.labeling_sets, theta=0.5)
            as_list = ClusterLabeler(fit.labeling_sets, theta=0.5)
            labels = as_dataset.assign_all(rest)
            assert labels.tolist() == as_list.assign_all(list(rest)).tolist()
            assert as_dataset.candidates == as_list.candidates > 0
            assert labels.tolist() == [as_list.assign(p) for p in rest]


class TestTranspose:
    """``TransactionCSR.from_rows`` sorts 16-bit keys up to 65,536 items
    and the int32 codes past that; both must give every item's rows in
    ascending order."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([1 << 16, (1 << 16) + 1]),
        st.lists(
            st.sets(st.sampled_from([0, 1, 255, 256, 65534, 65535, 65536])),
            min_size=1, max_size=30,
        ),
    )
    def test_transpose_matches_the_rows(self, n_items, rows):
        rows = [sorted(c for c in row if c < n_items) for row in rows]
        indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
        codes = np.array([c for r in rows for c in r], dtype=np.int32)
        csr = TransactionCSR.from_rows(indptr, codes, n_items)
        expected = {}
        for i, row in enumerate(rows):
            for c in row:
                expected.setdefault(c, []).append(i)
        for c in (0, 1, 255, 256, 65534, 65535, n_items - 1):
            got = csr.t_indices[csr.t_indptr[c] : csr.t_indptr[c + 1]]
            assert got.tolist() == expected.get(c, [])
        assert csr.t_indices.dtype == np.int32
