"""Categorical-record ↔ transaction encodings (Section 3.1.2 and Section 5).

Two encodings from the paper live here:

* :func:`record_to_transaction` -- the ROCK encoding: for every
  attribute ``A`` with value ``v`` introduce an item ``A.v``; missing
  values contribute nothing.  The Jaccard similarity between two encoded
  records is then the paper's categorical similarity.
* :func:`dataset_to_boolean_matrix` -- the *traditional baseline*
  encoding of Section 5: every (attribute, value) pair becomes a 0/1
  boolean attribute and euclidean distance is applied to the resulting
  vectors.

plus the kernels' own: :func:`transaction_csr` codes a transaction set
(or ``A.v``-encoded records) as one item-code CSR, which every
transaction block scorer, the native fused pass and the fit planner's
cost estimate read.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from repro.data.records import MISSING, CategoricalDataset, CategoricalRecord
from repro.data.transactions import Transaction, TransactionDataset


def attribute_item(attribute: str, value: Any) -> str:
    """The item ``A.v`` the paper introduces for attribute ``A``, value ``v``."""
    return f"{attribute}.{value}"


def record_to_transaction(record: CategoricalRecord) -> Transaction:
    """Encode one categorical record as a transaction of ``A.v`` items.

    Missing values are simply ignored ("in the proposal, we simply
    ignore missing values", Section 3.1.2).
    """
    items = [attribute_item(a, v) for a, v in record.items()]
    return Transaction(items, tid=record.rid)


def dataset_to_transactions(dataset: CategoricalDataset) -> TransactionDataset:
    """Encode every record of a categorical dataset as a transaction.

    The vocabulary is the union of all ``A.v`` items, so downstream
    indicator-matrix operations see a consistent column layout.
    """
    return TransactionDataset([record_to_transaction(r) for r in dataset])


def dataset_to_boolean_matrix(
    dataset: CategoricalDataset,
) -> tuple[np.ndarray, list[str]]:
    """The Section-5 boolean 0/1 expansion used by the traditional baseline.

    For every categorical attribute a new boolean attribute is defined
    for every value in its domain; the new attribute is 1 iff the
    record's value equals that value.  Missing values expand to all-zero
    columns for that attribute (there is no paper-sanctioned imputation;
    indeed the paper *could not run* the traditional algorithm on the
    missing-value-heavy mutual-funds data).

    Returns the float matrix and the list of ``A.v`` column names.
    """
    columns: list[tuple[str, Any]] = []
    for attribute in dataset.schema:
        for value in dataset.domain(attribute):
            columns.append((attribute, value))
    column_index = {col: j for j, col in enumerate(columns)}
    matrix = np.zeros((len(dataset), len(columns)), dtype=np.float64)
    for i, record in enumerate(dataset):
        for attribute, value in record.items():
            matrix[i, column_index[(attribute, value)]] = 1.0
    names = [attribute_item(a, v) for a, v in columns]
    return matrix, names


def restrict_to_shared_attributes(
    a: CategoricalRecord, b: CategoricalRecord
) -> tuple[frozenset[Hashable], frozenset[Hashable]]:
    """The per-pair encoding for missing values (Section 3.1.2, time-series).

    "For a pair of records, the transaction for each record only
    contains items that correspond to attributes for which values are
    not missing in *either* record."  Each record thus maps to a
    different item set depending on its comparison partner; this
    function returns the pair of item sets for one comparison.
    """
    if a.schema != b.schema:
        raise ValueError("records must share a schema")
    items_a = []
    items_b = []
    for attribute, va, vb in zip(a.schema, a.values, b.values):
        if va is MISSING or vb is MISSING:
            continue
        items_a.append(attribute_item(attribute, va))
        items_b.append(attribute_item(attribute, vb))
    return frozenset(items_a), frozenset(items_b)


# -- the kernels' encoding ---------------------------------------------------

@dataclass
class TransactionCSR:
    """Item-code CSR of a transaction set, and its transpose.

    ``indptr``/``indices`` map each transaction to its ascending item
    codes (codes number the items in first-seen order; only the shared
    counts matter to a similarity); ``t_indptr``/``t_indices`` are the
    transpose (item -> the ascending transactions holding it), which
    lets a scorer accumulate row intersections by walking only the
    transactions that share an item.  Ids are int32 (``n < 2**31``);
    the indptrs stay int64 so totals never overflow.  Plain arrays, so
    the encoding pickles to pool workers.
    """

    indptr: np.ndarray
    indices: np.ndarray
    t_indptr: np.ndarray
    t_indices: np.ndarray
    sizes: np.ndarray
    n: int
    n_items: int

    def __len__(self) -> int:
        return self.n

    @classmethod
    def from_rows(
        cls, indptr: np.ndarray, indices: np.ndarray, n_items: int
    ) -> "TransactionCSR":
        """Wrap row-major codes (ascending within each row); builds the transpose."""
        n = len(indptr) - 1
        sizes = np.diff(indptr).astype(np.int32)
        t_indptr = np.zeros(n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(indices, minlength=n_items), out=t_indptr[1:])
        # stable by item keeps each item's transactions ascending
        row_ids = np.repeat(np.arange(n, dtype=np.int32), sizes)
        t_indices = row_ids[np.argsort(indices, kind="stable")]
        return cls(indptr, indices, t_indptr, t_indices, sizes, n, n_items)

    def shared_pairs(self) -> int:
        """``S = sum_items df (df - 1) / 2``: pairs sharing an item, with multiplicity.

        The accumulate work of the shared-item scorers (each walks, per
        row, the later transactions holding each of its items) and
        ``sum_pairs |p & q|``; about ``sum df^2 / 2``.
        """
        df = np.diff(self.t_indptr)
        return int((df * (df - 1) // 2).sum())

    def indicator(self, dtype: Any = np.float32) -> np.ndarray:
        """The dense ``(n, n_items)`` 0/1 matrix of the same codes."""
        matrix = np.zeros((self.n, self.n_items), dtype=dtype)
        matrix[np.repeat(np.arange(self.n), self.sizes), self.indices] = 1
        return matrix

    def subset(self, rows: Sequence[int]) -> "TransactionCSR":
        """The encoding of the given transactions, reindexed, same codes."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        starts, sizes = self.indptr[rows], self.sizes[rows].astype(np.int64)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return TransactionCSR.from_rows(indptr, self.indices[gather], self.n_items)


def transaction_csr_blocker(points: Any, similarity: Any = None) -> str | None:
    """Why :func:`transaction_csr` cannot encode these points, or ``None``.

    Encodable: transaction datasets and sequences of transactions or
    sets under Jaccard or overlap similarity, and categorical datasets
    under Jaccard (as ``A.v`` items).  Checked by type, without a pass
    over the points.
    """
    from repro.core.similarity import JaccardSimilarity, OverlapSimilarity

    if similarity is not None and not isinstance(
        similarity, (JaccardSimilarity, OverlapSimilarity)
    ):
        return f"similarity {type(similarity).__name__} has no item encoding"
    if isinstance(points, CategoricalDataset):
        if isinstance(similarity, OverlapSimilarity):
            return "overlap similarity over categorical records unsupported"
        return None
    if isinstance(points, TransactionDataset):
        return None
    if (
        isinstance(points, Sequence)
        and len(points) > 0
        and isinstance(points[0], (Transaction, frozenset, set))
    ):
        return None
    return "points are not transaction-shaped"


def transaction_csr(points: Any, similarity: Any = None) -> TransactionCSR | None:
    """Encode points as a :class:`TransactionCSR`, or ``None`` if unsupported.

    One pass over the points (see :func:`transaction_csr_blocker` for
    what is supported); records become their ``A.v`` items, exactly the
    items :func:`record_to_transaction` gives them, so similarities
    match.
    """
    if transaction_csr_blocker(points, similarity) is not None:
        return None
    if isinstance(points, CategoricalDataset):
        rows = [
            [attribute_item(a, v) for a, v in record.items()] for record in points
        ]
    else:
        rows = [t.items if isinstance(t, Transaction) else t for t in points]
    n = len(rows)
    items = list(chain.from_iterable(rows))
    index = {item: code for code, item in enumerate(dict.fromkeys(items))}
    n_items = len(index)
    codes = np.fromiter(map(index.__getitem__, items), np.int64, len(items))
    sizes = np.fromiter(map(len, rows), np.int64, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    # ascending codes within each row: one global sort of (row, code)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), sizes)
    indices = np.sort(row_ids * max(n_items, 1) + codes) % max(n_items, 1)
    return TransactionCSR.from_rows(indptr, indices.astype(np.int32), n_items)
