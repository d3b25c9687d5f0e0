"""Market-basket transactions.

The paper's primary data model (Sections 1 and 3.1.1) is a database of
*transactions*, each of which is a finite set of items.  A transaction is
represented here as an immutable :class:`Transaction` wrapping a
``frozenset`` of hashable items, and a database as a
:class:`TransactionDataset`, which additionally exposes the item
vocabulary, the item-code CSR the fit and the label scan read, and a
dense 0/1 indicator matrix for the centroid-based baseline (Section 5:
"we handle categorical attributes by converting them to boolean
attributes with 0/1 values").
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import chain
from typing import Any

import numpy as np

Item = Hashable


class Transaction:
    """An immutable set of items, optionally tagged with an identifier.

    Transactions compare equal (and hash) by their item set alone, so a
    :class:`Transaction` may be used interchangeably with a plain
    ``frozenset`` in dictionaries and set operations.

    Parameters
    ----------
    items:
        Any iterable of hashable items.  Duplicates collapse.
    tid:
        Optional external identifier (e.g. a customer id or a row
        number).  Ignored for equality and hashing.
    """

    __slots__ = ("_items", "tid")

    def __init__(self, items: Iterable[Item], tid: Any = None) -> None:
        self._items = frozenset(items)
        self.tid = tid

    @property
    def items(self) -> frozenset[Item]:
        """The item set of this transaction."""
        return self._items

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._items

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Transaction):
            return self._items == other._items
        if isinstance(other, (frozenset, set)):
            return self._items == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __or__(self, other: "Transaction | frozenset[Item]") -> frozenset[Item]:
        return self._items | _item_set(other)

    def __and__(self, other: "Transaction | frozenset[Item]") -> frozenset[Item]:
        return self._items & _item_set(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(i) for i in sorted(self._items, key=repr))
        tag = f", tid={self.tid!r}" if self.tid is not None else ""
        return f"Transaction({{{inner}}}{tag})"

    def jaccard(self, other: "Transaction | frozenset[Item]") -> float:
        """Jaccard coefficient |T1 ∩ T2| / |T1 ∪ T2| (footnote 2 of the paper).

        Two empty transactions are defined to have similarity 0.0 --
        the paper never compares empty transactions, and treating them
        as dissimilar keeps empty records from becoming universal
        neighbors.
        """
        other_items = _item_set(other)
        union = len(self._items | other_items)
        if union == 0:
            return 0.0
        return len(self._items & other_items) / union


def _item_set(value: "Transaction | frozenset[Item] | set[Item]") -> frozenset[Item]:
    if isinstance(value, Transaction):
        return value.items
    return frozenset(value)


class TransactionDataset(Sequence[Transaction]):
    """An in-memory database of transactions and its item-code CSR.

    The dataset owns its item *vocabulary* (the sorted union of all
    items, by default) and, built once in the constructor, the int32
    CSR of every transaction's item codes in vocabulary order
    (:attr:`csr`): the in-memory twin of the on-disk
    :class:`~repro.shard.store.TransactionStore`.  The fit's encoding,
    the §4.6 label scan's query rows and the dense indicator matrix of
    the euclidean-distance baseline all derive from it.

    Parameters
    ----------
    transactions:
        The transactions.  Plain iterables of items are wrapped into
        :class:`Transaction` objects.
    vocabulary:
        Optional explicit item vocabulary.  When omitted, the sorted
        union of all items is used.  Items of mixed, unsortable types
        fall back to insertion order.
    """

    def __init__(
        self,
        transactions: Iterable[Transaction | Iterable[Item]],
        vocabulary: Sequence[Item] | None = None,
    ) -> None:
        from repro.core.encoding import encode_items, item_order

        self._transactions: list[Transaction] = [
            t if isinstance(t, Transaction) else Transaction(t) for t in transactions
        ]
        if vocabulary is None:
            vocabulary = item_order(
                chain.from_iterable(t.items for t in self._transactions)
            )
        else:
            vocabulary = list(vocabulary)
        item_index = {item: i for i, item in enumerate(vocabulary)}
        if len(item_index) != len(vocabulary):
            raise ValueError("vocabulary contains duplicate items")
        indptr, codes, sizes = encode_items(self._transactions, item_index)
        outside = np.flatnonzero(np.diff(indptr) != sizes)
        if outside.size:
            t = self._transactions[outside[0]]
            extra = t.items.difference(item_index)
            raise ValueError(
                f"transaction {t!r} contains items outside the "
                f"vocabulary: {sorted(map(repr, extra))}"
            )
        self._vocabulary = vocabulary
        self._item_index = item_index
        self._csr = (indptr, codes)
        self._indicator: np.ndarray | None = None

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return self.subset(range(len(self._transactions))[index])
        return self._transactions[index]

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    # -- vocabulary & matrix views ----------------------------------------
    @property
    def vocabulary(self) -> list[Item]:
        """The item vocabulary, one column of the indicator matrix per item."""
        return list(self._vocabulary)

    @property
    def n_items(self) -> int:
        return len(self._vocabulary)

    def item_index(self, item: Item) -> int:
        """Column index of ``item`` in the indicator matrix."""
        return self._item_index[item]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, codes)``: row ``i``'s item codes are
        ``codes[indptr[i]:indptr[i + 1]]``, ascending vocabulary
        positions.  int64 offsets, int32 codes; shared, not to be
        written."""
        return self._csr

    def indicator_matrix(self) -> np.ndarray:
        """Dense ``(n_transactions, n_items)`` uint8 0/1 matrix.

        Row ``i`` has a 1 in column ``j`` iff transaction ``i`` contains
        vocabulary item ``j`` -- exactly the boolean-attribute view the
        paper uses in Example 1.1 and for the traditional baseline.
        The matrix is scattered from :attr:`csr` once and cached.
        """
        if self._indicator is None:
            from repro.core.encoding import indicator

            self._indicator = indicator(*self._csr, self.n_items, np.uint8)
        return self._indicator

    def sizes(self) -> np.ndarray:
        """Transaction sizes |T_i| as an int64 vector."""
        return np.diff(self._csr[0])

    def subset(self, indices: Iterable[int]) -> "TransactionDataset":
        """The given rows, sharing the vocabulary: a gather of :attr:`csr`."""
        from repro.core.encoding import gather_rows

        if not isinstance(indices, (Sequence, np.ndarray)):
            indices = list(indices)
        n = len(self._transactions)
        rows = np.array(indices, dtype=np.int64).reshape(-1)
        if rows.size and (rows.min() < -n or rows.max() >= n):
            raise IndexError("transaction index out of range")
        rows[rows < 0] += n
        subset = TransactionDataset.__new__(TransactionDataset)
        subset.__dict__.update(
            self.__dict__,
            _transactions=[self._transactions[i] for i in rows.tolist()],
            _csr=gather_rows(*self._csr, rows),
            _indicator=None,
        )
        return subset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionDataset(n={len(self._transactions)}, "
            f"items={len(self._vocabulary)})"
        )
