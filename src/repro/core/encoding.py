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

plus the one item encoder, :func:`encode_items`: a
:class:`~repro.data.transactions.TransactionDataset` built from rows
runs it once (the readers build the CSR directly), and the fit's
:func:`transaction_csr` and the §4.6 label scan's query rows
(:func:`encode_query`) derive from that CSR; only loose points (plain
sequences, HTTP, the stream) take the walk again.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
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
    # (attribute, value) keys: pairs whose A.v names collide keep two columns
    columns = [(a, v) for a in dataset.schema for v in dataset.domain(a)]
    indptr, codes, _ = encode_items(
        (frozenset(record.items()) for record in dataset),
        {column: j for j, column in enumerate(columns)},
    )
    names = [attribute_item(a, v) for a, v in columns]
    return indicator(indptr, codes, len(columns), np.float64), names


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


# -- the one item encoder ----------------------------------------------------

def as_item_set(point: Any) -> frozenset[Hashable]:
    """A transaction's, set's or categorical record's items; else ``TypeError``."""
    if isinstance(point, Transaction):
        return point.items
    if isinstance(point, (frozenset, set)):
        return frozenset(point)
    if isinstance(point, CategoricalRecord):
        return record_to_transaction(point).items
    raise TypeError(
        f"cannot interpret {type(point).__name__} as an item set; "
        "expected Transaction, set, or CategoricalRecord"
    )


def item_order(items: Iterable[Any]) -> list[Any]:
    """The distinct items, sorted when they sort, else in first-seen order.

    The one vocabulary order: a sorted vocabulary does not depend on the
    iteration order of the item sets, which for string items follows
    ``PYTHONHASHSEED``.
    """
    order = list(dict.fromkeys(items))
    try:
        order.sort()
    except TypeError:
        pass  # mixed unsortable types: keep first-seen order
    return order


def encode_items(
    points: Iterable[Any], code_of: dict[Any, int], grow: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one item walk: points (read by :func:`as_item_set`) as int64
    ``indptr``, int32 ``codes`` ascending within each row, and int64 true
    row ``sizes``.  An item missing from ``code_of`` extends it
    (first-seen order) when ``grow``; otherwise it gets no code but still
    counts in its row's size: it enlarges every union, intersecting nothing.
    """
    indptr, codes, sizes = _walk_items(points, code_of, grow)
    _sort_within_rows(indptr, codes)
    return indptr, codes, sizes


def _walk_items(
    points: Iterable[Any], code_of: dict[Any, int], grow: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`encode_items` with each row's codes in its items' iteration
    order: three ``fromiter`` passes, and a mask only when items lack a code."""
    rows = list(map(as_item_set, points))
    lens = list(map(len, rows))
    if grow:
        for item in dict.fromkeys(chain.from_iterable(rows)):
            code_of.setdefault(item, len(code_of))
    codes = np.fromiter(
        map(code_of.get, chain.from_iterable(rows), repeat(-1)),
        np.int32, sum(lens),
    )
    indptr = np.fromiter(accumulate(lens, initial=0), np.int64, len(rows) + 1)
    return (*_drop_uncoded(indptr, codes), np.diff(indptr))


def _drop_uncoded(
    indptr: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR without its ``-1`` codes (row order kept)."""
    uncoded = codes < 0
    if not uncoded.any():
        return indptr, codes
    # each row start moves back by the uncoded codes before it
    dropped = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(uncoded, out=dropped[1:])
    return indptr - dropped[indptr], codes[~uncoded]


SORT_ROWS = 4096  # rows per sort: bounds the temporaries of a dataset-sized walk


def _sort_within_rows(indptr: np.ndarray, codes: np.ndarray) -> None:
    """Sort each CSR row's codes in place, by packed ``(row, code)`` keys."""
    width = int(codes.max()) + 1 if codes.size else 1
    for lo in range(0, indptr.size - 1, SORT_ROWS):
        bounds = indptr[lo : lo + SORT_ROWS + 1]
        segment = codes[bounds[0] : bounds[-1]]
        keys = np.repeat(np.arange(bounds.size - 1), np.diff(bounds)) * width
        keys += segment
        keys.sort()
        segment[:] = keys % width


def encode_query(
    points: Iterable[Any], code_of: dict[Any, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`encode_items` without ``grow``, and with codes in no
    particular order within a row: the §4.6 tiers never need them
    ascending (the native kernel sorts each row itself).  Loose points
    take the walk; a dataset's CSR is remapped through one ``O(V)``
    array instead (row lengths are the true sizes)."""
    if not isinstance(points, TransactionDataset):
        return _walk_items(points, code_of)
    remap = np.fromiter(
        map(code_of.get, points.vocabulary, repeat(-1)), np.int32, points.n_items
    )
    indptr, codes = points.csr
    return (*_drop_uncoded(indptr, remap[codes]), np.diff(indptr))


def gather_rows(
    indptr: np.ndarray, codes: np.ndarray, rows: Any
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the given rows, in the given order, same codes.

    Ascending rows holding more than 1/24 of the codes (the label
    scan's unsampled rest) gather through a mask of one byte per code;
    other gathers through three int64 temporaries per gathered code.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    if 24 * out[-1] > codes.size and (np.diff(rows) > 0).all():
        keep = np.zeros(indptr.size - 1, dtype=bool)
        keep[rows] = True
        return out, codes[np.repeat(keep, np.diff(indptr))]
    gather = np.repeat(starts - out[:-1], sizes) + np.arange(out[-1])
    return out, codes[gather]


def indicator(
    indptr: np.ndarray, codes: np.ndarray, n_columns: int, dtype: Any
) -> np.ndarray:
    """The dense ``(rows, n_columns)`` 0/1 matrix of a code CSR."""
    n = indptr.size - 1
    matrix = np.zeros((n, n_columns), dtype=dtype)
    matrix[np.repeat(np.arange(n), np.diff(indptr)), codes] = 1
    return matrix


# -- the kernels' encoding ---------------------------------------------------

@dataclass
class TransactionCSR:
    """Item-code CSR of a transaction set, and its transpose.

    ``indptr``/``indices`` map each transaction to its ascending item
    codes (a dataset's vocabulary order, or first-seen order for loose
    points; only the shared counts matter to a similarity);
    ``t_indptr``/``t_indices`` are the transpose (item -> the ascending
    transactions holding it), which lets a scorer accumulate row
    intersections by walking only the transactions that share an item.
    Ids are int32 (``n < 2**31``); the indptrs stay int64 so totals
    never overflow.  Plain arrays, never written once built, so block
    threads share one encoding.
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
        # stable by item keeps each item's transactions ascending; numpy
        # sorts 16-bit keys stably by radix, several times faster
        keys = indices.astype(np.uint16) if n_items <= 1 << 16 else indices
        row_ids = np.repeat(np.arange(n, dtype=np.int32), sizes)
        t_indices = row_ids[np.argsort(keys, kind="stable")]
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
        return indicator(self.indptr, self.indices, self.n_items, dtype)

    def subset(self, rows: Sequence[int]) -> "TransactionCSR":
        """The encoding of the given transactions, reindexed, same codes."""
        indptr, indices = gather_rows(self.indptr, self.indices, rows)
        return TransactionCSR.from_rows(indptr, indices, self.n_items)



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
    """Encode points as a :class:`TransactionCSR`, or ``None`` if
    :func:`transaction_csr_blocker` objects.  A dataset lends its own CSR;
    other points take :func:`encode_items` (so a row :func:`as_item_set`
    rejects raises ``TypeError``, and records give their ``A.v`` items).
    """
    if transaction_csr_blocker(points, similarity) is not None:
        return None
    if isinstance(points, TransactionDataset):
        indptr, codes = points.csr
        return TransactionCSR.from_rows(indptr, codes, points.n_items)
    code_of: dict[Any, int] = {}
    indptr, codes, _ = encode_items(points, code_of, grow=True)
    return TransactionCSR.from_rows(indptr, codes, len(code_of))
