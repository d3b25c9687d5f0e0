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

import operator
from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import chain, repeat
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
    """An in-memory database of transactions, held as an item-code CSR.

    The dataset is its item *vocabulary* (the sorted union of all items,
    by default), the int32 CSR of every transaction's item codes in
    vocabulary order (:attr:`csr`) and, where rows carry one, an
    identifier per row: the in-memory twin of the on-disk
    :class:`~repro.data.store.TransactionStore`, which opens as one.  No per-row Python
    objects are kept: indexing and iteration decode :class:`Transaction`
    objects on access, and the fit's encoding, the §4.6 label scan's
    query rows and the dense indicator matrix of the euclidean-distance
    baseline all read the CSR.

    Parameters
    ----------
    transactions:
        The transactions.  Plain iterables of items are read as item
        sets; a :class:`Transaction`'s ``tid`` is kept.
    vocabulary:
        Optional explicit item vocabulary.  When omitted, the sorted
        union of all items is used.  Items of mixed, unsortable types
        fall back to insertion order.

    :meth:`from_csr` builds a dataset from the arrays directly, as the
    readers and generators do.
    """

    def __init__(
        self,
        transactions: Iterable[Transaction | Iterable[Item]],
        vocabulary: Sequence[Item] | None = None,
    ) -> None:
        from repro.core.encoding import encode_items, item_order

        rows: list[frozenset[Item]] = []
        tids: list[Any] = []
        for t in transactions:
            if isinstance(t, Transaction):
                rows.append(t.items)
                tids.append(t.tid)
            else:
                rows.append(frozenset(t))
                tids.append(None)
        if vocabulary is None:
            vocabulary = item_order(chain.from_iterable(rows))
        item_index = _item_index(vocabulary)
        indptr, codes, sizes = encode_items(rows, item_index)
        outside = np.flatnonzero(np.diff(indptr) != sizes)
        if outside.size:
            t = Transaction(rows[outside[0]], tid=tids[outside[0]])
            extra = t.items.difference(item_index)
            raise ValueError(
                f"transaction {t!r} contains items outside the "
                f"vocabulary: {sorted(map(repr, extra))}"
            )
        self._init(indptr, codes, item_index, _tid_array(tids))

    @classmethod
    def from_csr(
        cls,
        indptr: Any,
        codes: Any,
        vocabulary: Sequence[Item],
        tids: Any = None,
    ) -> "TransactionDataset":
        """The dataset of an item-code CSR: row ``i`` holds the items
        ``vocabulary[c]`` for ``c`` in ``codes[indptr[i]:indptr[i + 1]]``.

        Codes may come in any order within a row (they are sorted when
        they do not ascend); ``tids``, when given, is one identifier per
        row.  Raises ``ValueError`` for an ``indptr`` that does not start
        at 0, decreases or does not end at ``len(codes)``, for a code
        outside the vocabulary, for a code repeated within a row, and
        for a ``tids`` of the wrong length.  The arrays are not copied
        when they already have the CSR's dtypes.
        """
        indptr, codes = np.asarray(indptr), np.asarray(codes)
        item_index = _item_index(vocabulary)
        if indptr.ndim != 1 or codes.ndim != 1 or indptr.size == 0:
            raise ValueError("indptr and codes must be 1-D, indptr non-empty")
        if any(a.size and a.dtype.kind not in "iu" for a in (indptr, codes)):
            raise ValueError("indptr and codes must be integer arrays")
        if indptr[0] != 0 or indptr[-1] != codes.size:
            raise ValueError(
                f"indptr must run from 0 to len(codes) = {codes.size}; "
                f"got {indptr[0]} .. {indptr[-1]}"
            )
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr decreases")
        if codes.size and (codes.min() < 0 or codes.max() >= len(item_index)):
            raise ValueError(
                f"codes must lie in [0, {len(item_index)}); got "
                f"{codes.min()} .. {codes.max()}"
            )
        indptr = indptr.astype(np.int64, copy=False)
        codes = codes.astype(np.int32, copy=False)
        # adjacent codes of one row: a step that falls, or repeats
        within = np.ones(max(codes.size - 1, 0), dtype=bool)
        starts = indptr[1:-1]
        within[starts[(starts > 0) & (starts < codes.size)] - 1] = False
        steps = np.diff(codes)[within]
        if (steps < 0).any():
            from repro.core.encoding import _sort_within_rows

            codes = codes.copy()
            _sort_within_rows(indptr, codes)
            steps = np.diff(codes)[within]
        if (steps == 0).any():
            raise ValueError("a code is repeated within a row")
        if tids is not None:
            tids = np.asarray(tids)
            if tids.shape != (indptr.size - 1,):
                raise ValueError(
                    f"tids must hold one id per row ({indptr.size - 1}); "
                    f"got shape {tids.shape}"
                )
        dataset = cls.__new__(cls)
        dataset._init(indptr, codes, item_index, tids)
        return dataset

    def _init(
        self,
        indptr: np.ndarray,
        codes: np.ndarray,
        item_index: dict[Item, int],
        tids: np.ndarray | None,
    ) -> None:
        self._item_index = item_index
        # the vocabulary as an object array: a row decodes by one gather
        self._items = np.fromiter(item_index, dtype=object, count=len(item_index))
        self._csr = (indptr, codes)
        self._tids = tids
        self._indicator: np.ndarray | None = None

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return self._csr[0].size - 1

    def __getitem__(self, index):  # type: ignore[override]
        n = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                return self.subset(range(start, stop, step))
            return self._rows(start, max(start, stop))
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError("transaction index out of range")
        i %= n
        return self._decode(i, i + 1)[0]

    def __iter__(self) -> Iterator[Transaction]:
        n = len(self)
        for lo in range(0, n, DECODE_ROWS):
            yield from self._decode(lo, min(lo + DECODE_ROWS, n))

    def _decode(self, lo: int, hi: int) -> list[Transaction]:
        """Rows ``lo:hi`` as :class:`Transaction` objects, one gather."""
        indptr, codes = self._csr
        bounds = indptr[lo : hi + 1].tolist()
        base = bounds[0]
        items = self._items[codes[base : bounds[-1]]].tolist()
        tids = repeat(None) if self._tids is None else self._tids[lo:hi].tolist()
        return [
            Transaction(items[a - base : b - base], tid)
            for a, b, tid in zip(bounds, bounds[1:], tids)
        ]

    def _rows(self, start: int, stop: int) -> "TransactionDataset":
        """Rows ``start:stop`` as views of :attr:`csr`, offsets rebased."""
        indptr, codes = self._csr
        bounds = indptr[start : stop + 1]
        return self._derived(
            bounds - bounds[0],
            codes[bounds[0] : bounds[-1]],
            None if self._tids is None else self._tids[start:stop],
        )

    def _derived(
        self, indptr: np.ndarray, codes: np.ndarray, tids: np.ndarray | None
    ) -> "TransactionDataset":
        """A dataset of other rows sharing this one's vocabulary."""
        derived = TransactionDataset.__new__(TransactionDataset)
        derived.__dict__.update(
            self.__dict__, _csr=(indptr, codes), _tids=tids, _indicator=None
        )
        return derived

    # -- vocabulary & matrix views ----------------------------------------
    @property
    def vocabulary(self) -> list[Item]:
        """The item vocabulary, one column of the indicator matrix per item."""
        return self._items.tolist()

    @property
    def n_items(self) -> int:
        return self._items.size

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
        n = len(self)
        rows = np.array(indices, dtype=np.int64).reshape(-1)
        if rows.size and (rows.min() < -n or rows.max() >= n):
            raise IndexError("transaction index out of range")
        rows[rows < 0] += n
        return self._derived(
            *gather_rows(*self._csr, rows),
            None if self._tids is None else self._tids[rows],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransactionDataset(n={len(self)}, items={self.n_items})"


DECODE_ROWS = 4096  # rows decoded per gather while iterating


def _item_index(vocabulary: Iterable[Item]) -> dict[Item, int]:
    """Each vocabulary item's code; ``ValueError`` on a repeated item."""
    vocabulary = list(vocabulary)
    item_index = {item: i for i, item in enumerate(vocabulary)}
    if len(item_index) != len(vocabulary):
        raise ValueError("vocabulary contains duplicate items")
    return item_index


def _tid_array(tids: list[Any]) -> np.ndarray | None:
    """Row ids as an int64 array, an object array when some are not
    integers, or ``None`` when no row carries one."""
    if all(tid is None for tid in tids):
        return None
    if all(type(tid) is int for tid in tids):
        try:
            return np.array(tids, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(tids, dtype=object, count=len(tids))
