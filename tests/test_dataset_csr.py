"""The CSR-only TransactionDataset: the array constructor, decode on
access, the readers that build the arrays directly, basket-text fuzzing
and the dataset's memory footprint."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import gather_rows
from repro.data.io import iter_transactions, read_transactions, write_transactions
from repro.data.transactions import DECODE_ROWS, Transaction, TransactionDataset
from repro.datasets import small_synthetic_basket
from repro.datasets.synthetic_basket import (
    SyntheticBasketConfig,
    generate_synthetic_basket,
)
from repro.estimator import RockClusterer, _coerce_points
from repro.data.store import TransactionStore


def _rows(dataset):
    return [(t.items, t.tid) for t in dataset]


# ---------------------------------------------------------------------------
# the array constructor
# ---------------------------------------------------------------------------

class TestFromCsr:
    def test_rows_decode_from_the_codes(self):
        ds = TransactionDataset.from_csr([0, 2, 2, 3], [2, 0, 1], ["a", "b", "c"])
        assert [t.items for t in ds] == [
            frozenset("ac"), frozenset(), frozenset("b")
        ]
        assert ds[0].tid is None
        # codes ascend within each row once built
        assert ds.csr[1].tolist() == [0, 2, 1]

    def test_tids_and_dtypes(self):
        ds = TransactionDataset.from_csr(
            np.array([0, 1, 3], dtype=np.int32), [1, 0, 1], ["x", "y"], tids=[7, 9]
        )
        assert [t.tid for t in ds] == [7, 9]
        assert type(ds[1].tid) is int
        assert ds.csr[0].dtype == np.int64 and ds.csr[1].dtype == np.int32

    def test_a_code_may_repeat_across_rows(self):
        ds = TransactionDataset.from_csr([0, 1, 2], [0, 0], ["a"])
        assert ds[0] == ds[1] == {"a"}

    @pytest.mark.parametrize(
        "indptr, codes, match",
        [
            ([1, 2], [0, 1], "from 0 to len"),
            ([0, 1], [0, 1], "from 0 to len"),
            ([0, 2, 1, 2], [0, 1], "decreases"),
            ([[0, 1]], [0], "1-D"),
            ([], [], "1-D"),
            ([0, 1], [3], r"\[0, 3\)"),
            ([0, 1], [-1], r"\[0, 3\)"),
            ([0, 3], [0, 1, 0], "repeated"),
            ([0, 2, 4], [0, 1, 2, 2], "repeated"),
            ([0, 1], [2**32], r"\[0, 3\)"),
            ([0, 1.0], [0], "integer"),
        ],
    )
    def test_malformed_arrays_raise(self, indptr, codes, match):
        with pytest.raises(ValueError, match=match):
            TransactionDataset.from_csr(indptr, codes, ["a", "b", "c"])

    def test_misaligned_tids_raise(self):
        with pytest.raises(ValueError, match="one id per row"):
            TransactionDataset.from_csr([0, 1], [0], ["a"], tids=[1, 2])

    def test_duplicate_vocabulary_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransactionDataset.from_csr([0, 1], [0], ["a", "a"])

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 4), max_size=8),
        data=st.data(),
    )
    def test_any_arrays_build_or_raise(self, sizes, data):
        """Arbitrary CSR arrays either decode to their rows or raise
        ``ValueError``; never a dataset that decodes wrongly."""
        codes = data.draw(
            st.lists(st.integers(-1, 5), min_size=sum(sizes), max_size=sum(sizes))
        )
        indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        vocabulary = list("abcde")
        rows = [codes[a:b] for a, b in zip(indptr[:-1], indptr[1:])]
        valid = all(
            len(set(row)) == len(row) and all(0 <= c < 5 for c in row)
            for row in rows
        )
        if not valid:
            with pytest.raises(ValueError):
                TransactionDataset.from_csr(indptr, codes, vocabulary)
            return
        ds = TransactionDataset.from_csr(indptr, codes, vocabulary)
        assert [t.items for t in ds] == [
            frozenset(vocabulary[c] for c in row) for row in rows
        ]


# ---------------------------------------------------------------------------
# decode on access, views and gathers
# ---------------------------------------------------------------------------

class TestDecodeOnAccess:
    def test_no_per_row_objects_are_kept(self):
        ds = TransactionDataset([Transaction(["a", "b"], tid=3), ["c"]])
        assert not any(isinstance(v, list) for v in vars(ds).values())
        assert ds[0] == Transaction(["b", "a"]) and ds[0].tid == 3
        assert ds[1].tid is None
        assert hash(ds[0]) == hash(frozenset("ab"))

    def test_non_integer_tids_kept(self):
        ds = TransactionDataset([Transaction(["a"], tid="x"), Transaction(["b"])])
        assert [t.tid for t in ds] == ["x", None]
        assert [t.tid for t in ds[::-1]] == [None, "x"]

    def test_indexing_matches_iteration_across_decode_chunks(self):
        basket = small_synthetic_basket(
            n_clusters=2, cluster_size=DECODE_ROWS // 2 + 30, n_outliers=5, seed=2
        )
        ds = basket.transactions
        assert len(ds) > DECODE_ROWS
        rows = list(ds)
        assert len(rows) == len(ds)
        for i in (0, 1, DECODE_ROWS - 1, DECODE_ROWS, len(ds) - 1, -1, -len(ds)):
            assert ds[i] == rows[i] and ds[i].tid == rows[i].tid
        assert [t.tid for t in rows] == list(range(len(ds)))
        with pytest.raises(IndexError):
            ds[len(ds)]
        with pytest.raises(IndexError):
            ds[-len(ds) - 1]
        assert ds[np.int64(3)] == rows[3]

    def test_step_one_slice_is_a_view(self):
        ds = small_synthetic_basket(n_clusters=2, cluster_size=30, seed=1).transactions
        part = ds[10:25]
        assert np.shares_memory(part.csr[1], ds.csr[1])
        assert part.csr[0][0] == 0
        assert _rows(part) == _rows(ds)[10:25]
        assert len(ds[25:10]) == 0 and len(ds[-3:]) == 3
        assert _rows(ds[-5:-1]) == _rows(ds)[-5:-1]
        assert _rows(ds[3:40:7]) == _rows(ds)[3:40:7]
        assert _rows(ds[::-1]) == _rows(ds)[::-1]

    def test_subset_gathers_rows_and_tids(self):
        ds = small_synthetic_basket(n_clusters=2, cluster_size=30, seed=1).transactions
        rows = _rows(ds)
        for picked in ([4, 2, 2, -1], list(range(0, len(ds), 2)), [], [5]):
            assert _rows(ds.subset(picked)) == [rows[i] for i in picked]
        with pytest.raises(IndexError):
            ds.subset([len(ds)])

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_gather_rows_paths_agree(self, sizes, data):
        """The ascending mask gather equals the positional gather."""
        indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        codes = np.arange(indptr[-1], dtype=np.int32)
        n = len(sizes)
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        for picked in (rows, sorted(set(rows))):
            out, gathered = gather_rows(indptr, codes, picked)
            expected = [codes[indptr[i] : indptr[i + 1]] for i in picked]
            assert np.diff(out).tolist() == [len(e) for e in expected]
            assert gathered.tolist() == [c for e in expected for c in e.tolist()]


# ---------------------------------------------------------------------------
# readers that build the arrays directly
# ---------------------------------------------------------------------------

class TestDirectReaders:
    def test_store_subset_matches_decoded_rows(self, tmp_path):
        basket = small_synthetic_basket(
            n_clusters=3, cluster_size=40, n_outliers=8, seed=7
        )
        store = TransactionStore.write(tmp_path / "s", basket.transactions)
        picked = [5, 0, 17, 17, 40]
        sub = store.subset(picked)
        decoded = TransactionDataset(
            [basket.transactions[i].items for i in picked],
            vocabulary=store.vocabulary,
        )
        assert sub.vocabulary == store.vocabulary == basket.transactions.vocabulary
        assert _rows(sub) == _rows(decoded)
        assert sub.csr[0].tolist() == [0, 15, 31, 47, 63, 78]
        assert hashlib.sha1(sub.csr[1].tobytes()).hexdigest() == (
            "1d9f2aefa1e56912fe47a18dde6fbc9848316e0f"
        )
        with pytest.raises(IndexError):
            store.subset([len(store)])

    def test_binary_array_coerces_to_its_rows(self):
        basket = small_synthetic_basket(
            n_clusters=3, cluster_size=40, n_outliers=8, seed=7
        )
        X = basket.transactions.indicator_matrix()
        ds = _coerce_points(X)
        assert ds.vocabulary == list(range(X.shape[1]))
        assert [t.tid for t in ds] == list(range(len(X)))
        assert [t.items for t in ds] == [
            frozenset(np.flatnonzero(row).tolist()) for row in X
        ]
        labels = RockClusterer(n_clusters=3, theta=0.5, random_state=0).fit(X).labels_
        assert hashlib.sha1(labels.astype(np.int64).tobytes()).hexdigest() == (
            "69e6423d5053cca7d388ed7728a80265fe3f8190"
        )

    def test_array_with_empty_rows_and_columns(self):
        X = np.array([[0, 0, 0], [0, 2, 1], [0, 0, 0]])
        ds = _coerce_points(X)
        assert [t.items for t in ds] == [frozenset(), frozenset({1, 2}), frozenset()]
        assert ds.n_items == 3


# ---------------------------------------------------------------------------
# the basket-text trust boundary
# ---------------------------------------------------------------------------

_token_chars = st.characters(codec="utf-8", exclude_characters="\r\n") | st.sampled_from(
    "ab#é中"
)
_tokens = st.text(_token_chars, min_size=1, max_size=4).filter(
    lambda tok: tok.split() == [tok]
)
_separators = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "　", " \t"])


@st.composite
def basket_lines(draw):
    kind = draw(st.sampled_from(["items", "items", "items", "blank", "comment"]))
    if kind == "blank":
        return draw(st.lists(_separators, max_size=2).map("".join))
    tokens = draw(st.lists(_tokens, min_size=1, max_size=6))
    tokens += draw(st.lists(st.sampled_from(tokens), max_size=3))  # repeats
    if kind == "comment":
        tokens[0] = "#" + tokens[0]
    seps = draw(st.lists(_separators, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(basket_lines(), max_size=12), trailing=st.booleans())
def test_basket_text_readers_agree(tmp_path_factory, lines, trailing):
    """Every reader turns a line into ``frozenset(line.split())`` tagged
    with its line number, skipping blank and ``#`` lines, and a written
    dataset reads back to the same rows."""
    work = tmp_path_factory.mktemp("basket")
    path = work / "baskets.txt"
    path.write_text("\n".join(lines) + ("\n" if trailing else ""), encoding="utf-8")
    expected = [
        (frozenset(line.split()), lineno)
        for lineno, line in enumerate(lines)
        if line.split() and not line.split()[0].startswith("#")
    ]

    dataset = read_transactions(path)
    assert _rows(dataset) == expected
    assert _rows(iter_transactions(path)) == expected
    store = TransactionStore.from_transactions_file(path, work / "store")
    assert [t.items for t in store] == [items for items, _ in expected]

    write_transactions(dataset, work / "again.txt")
    again = read_transactions(work / "again.txt", vocabulary=dataset.vocabulary)
    assert [t.items for t in again] == [items for items, _ in expected]
    assert [t.tid for t in again] == list(range(len(expected)))


def test_read_transactions_rejects_items_outside_the_vocabulary(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("a b\n# c\n\nb c d\n", encoding="utf-8")
    with pytest.raises(ValueError, match="tid=3") as error:
        read_transactions(path, vocabulary=["a", "b"])
    assert "outside the vocabulary: [\"'c'\", \"'d'\"]" in str(error.value)
    assert read_transactions(path, vocabulary=["d", "c", "b", "a"]).vocabulary == [
        "d", "c", "b", "a"
    ]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

# traced bytes per generated row: a Transaction and its frozenset per
# row cost about 1,040 bytes at the peak; the arrays about 345
TRACED_PEAK_BYTES_PER_ROW = 500


def test_generator_traced_peak_per_row():
    config = SyntheticBasketConfig(cluster_sizes=(1_900,) * 10, n_outliers=1_000)
    gc.collect()
    tracemalloc.start()
    try:
        basket = generate_synthetic_basket(config, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(basket.transactions)
    assert n == 20_000
    assert peak / n < TRACED_PEAK_BYTES_PER_ROW, f"{peak / n:.0f} B per row"


def test_a_built_dataset_leaves_no_transaction_alive(tmp_path):
    gc.collect()
    before = sum(isinstance(o, Transaction) for o in gc.get_objects())
    basket = small_synthetic_basket(seed=4)
    path = tmp_path / "b.txt"
    write_transactions(basket.transactions, path)
    datasets = [
        basket.transactions,
        read_transactions(path),
        TransactionDataset([Transaction(["a"], tid=1), Transaction(["b"])]),
        basket.transactions[3:9],
        basket.transactions.subset([4, 1]),
    ]
    gc.collect()
    after = sum(isinstance(o, Transaction) for o in gc.get_objects())
    assert after == before
    assert all(len(ds) for ds in datasets)
