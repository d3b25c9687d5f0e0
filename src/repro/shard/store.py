"""Memory-mapped transaction store: encode once, mmap everywhere.

The parallel kernels of PR 3 ship their payload (a scorer holding the
whole CSR indicator matrix) through the pool initializer -- every
worker receives a pickled copy.  At sharded scale that copy *is* the
memory problem, so this module encodes a transaction database once
into an on-disk int32 CSR::

    <store>/store.json   format, n, n_items, nnz, vocabulary, checksums
    <store>/items.i32    item codes, row-major, ascending within a row
    <store>/indptr.i64   n+1 row offsets into items.i32

written chunk-at-a-time (the writer never holds more than
``chunk_rows`` encoded rows) and sha256-checksummed per artifact file,
mirroring the ``RockModel`` integrity scheme.  Workers then
``np.memmap`` the two arrays: the pool payload becomes a path and the
page cache shares one physical copy across every worker on the host.

:class:`StoreScorer` rebuilds the exact
:class:`~repro.core.neighbors.SparseTransactionScorer` state on top of
the memmaps -- same CSR values, same integer prefilter, same float64
similarity -- so the sharded adjacency is bit-identical to the fused
path's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.transactions import Transaction, TransactionDataset

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "StoreIntegrityError",
    "StoreScorer",
    "TransactionStore",
]

STORE_FORMAT = "rock-shard-store"
STORE_VERSION = 1
META_NAME = "store.json"
ITEMS_NAME = "items.i32"
INDPTR_NAME = "indptr.i64"
DEFAULT_CHUNK_ROWS = 8192


class StoreIntegrityError(RuntimeError):
    """A store file is missing, malformed, or fails its checksum."""


def _sha256_hex(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


class _ChunkWriter:
    """Appends raw array bytes to a file while folding them into a sha256."""

    def __init__(self, path: Path) -> None:
        self._handle = path.open("wb")
        self._digest = hashlib.sha256()

    def append(self, array: np.ndarray) -> None:
        data = array.tobytes()
        self._handle.write(data)
        self._digest.update(data)

    def close(self) -> str:
        self._handle.close()
        return "sha256:" + self._digest.hexdigest()


def _encode_chunks(
    rows: Iterable[Iterable[Any]],
    code_of: dict[Any, int],
    grow: bool,
    chunk_rows: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indptr, codes)`` per ``chunk_rows`` rows (each row its item set).

    When ``grow``, unseen items extend ``code_of`` in first-seen order
    (column order does not change a similarity); else they are an error.
    """
    from repro.core.encoding import encode_items

    rows = iter(rows)
    while chunk := [
        row.items if isinstance(row, Transaction) else frozenset(row)
        for row in islice(rows, chunk_rows)
    ]:
        indptr, codes, sizes = encode_items(chunk, code_of, grow=grow)
        short = np.flatnonzero(np.diff(indptr) != sizes)
        if short.size:
            item = next(iter(chunk[short[0]].difference(code_of)))
            raise StoreIntegrityError(
                f"item {item!r} missing from the fixed vocabulary"
            )
        yield indptr, codes


class TransactionStore:
    """An on-disk int32 CSR encoding of a transaction database."""

    def __init__(
        self,
        path: Path,
        meta: dict[str, Any],
        indptr: np.ndarray,
        items: np.ndarray,
    ) -> None:
        self.path = Path(path)
        self.meta = meta
        self.indptr = indptr
        self.items = items
        self.vocabulary: list[Any] = list(meta["vocabulary"])

    # -- writing ---------------------------------------------------------

    @classmethod
    def write(
        cls,
        path: str | os.PathLike[str],
        transactions: Iterable[Any],
        vocabulary: Iterable[Any] | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "TransactionStore":
        """Encode ``transactions`` under directory ``path``.

        Accepts a :class:`TransactionDataset` (its vocabulary is
        reused), any iterable of item iterables, or an explicit
        ``vocabulary``.  Rows are encoded and flushed ``chunk_rows`` at
        a time, so the writer's footprint is bounded regardless of n.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if vocabulary is None and isinstance(transactions, TransactionDataset):
            # the dataset's own CSR, already resident: written as is
            code_of = {item: i for i, item in enumerate(transactions.vocabulary)}
            chunks: Iterable[tuple[np.ndarray, np.ndarray]] = [transactions.csr]
        else:
            fixed = [] if vocabulary is None else list(vocabulary)
            code_of = {item: i for i, item in enumerate(fixed)}
            if len(code_of) != len(fixed):
                raise ValueError("vocabulary contains duplicate items")
            chunks = _encode_chunks(
                transactions, code_of, vocabulary is None, chunk_rows
            )
        path = Path(path)
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)

        items_writer = _ChunkWriter(path / ITEMS_NAME)
        indptr_writer = _ChunkWriter(path / INDPTR_NAME)
        indptr_writer.append(np.zeros(1, dtype=np.int64))
        n_rows = 0
        nnz = 0
        try:
            for indptr, codes in chunks:
                items_writer.append(codes)
                indptr_writer.append(indptr[1:] + nnz)
                n_rows += indptr.size - 1
                nnz += codes.size
        finally:
            items_digest = items_writer.close()
            indptr_digest = indptr_writer.close()
        all_items = list(code_of)

        meta = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "n": n_rows,
            "n_items": len(all_items),
            "nnz": nnz,
            "vocabulary": _json_safe_vocabulary(all_items),
            "checksums": {
                ITEMS_NAME: items_digest,
                INDPTR_NAME: indptr_digest,
            },
        }
        tmp = path / (META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path / META_NAME)
        return cls.open(path)

    @classmethod
    def from_transactions_file(
        cls,
        source: str | os.PathLike[str],
        path: str | os.PathLike[str],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "TransactionStore":
        """Encode a transactions text file (one basket per line).

        Streams through :func:`repro.data.io.iter_transactions`, so the
        source is never resident in RAM -- the entry point for fits
        over files that dwarf the memory budget.
        """
        from repro.data.io import iter_transactions

        return cls.write(
            path,
            (txn.items for txn in iter_transactions(source)),
            chunk_rows=chunk_rows,
        )

    # -- reading ---------------------------------------------------------

    @classmethod
    def open(
        cls, path: str | os.PathLike[str], verify: bool = False
    ) -> "TransactionStore":
        """Memory-map an existing store; ``verify=True`` re-checksums it.

        Verification reads every byte once, so the coordinator verifies
        a store a single time and workers open without it.
        """
        path = Path(path)
        meta_path = path / META_NAME
        if not meta_path.is_file():
            raise StoreIntegrityError(f"no {META_NAME} under {path}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(f"malformed {meta_path}: {exc}") from exc
        if meta.get("format") != STORE_FORMAT:
            raise StoreIntegrityError(
                f"{meta_path} is not a {STORE_FORMAT} artifact"
            )
        if meta.get("version") != STORE_VERSION:
            raise StoreIntegrityError(
                f"unsupported store version {meta.get('version')!r}"
            )
        n = int(meta["n"])
        nnz = int(meta["nnz"])
        indptr_path = path / INDPTR_NAME
        items_path = path / ITEMS_NAME
        for file_path, expected in (
            (indptr_path, (n + 1) * 8),
            (items_path, nnz * 4),
        ):
            if not file_path.is_file():
                raise StoreIntegrityError(f"missing {file_path}")
            actual = file_path.stat().st_size
            if actual != expected:
                raise StoreIntegrityError(
                    f"{file_path} is {actual} bytes, expected {expected}"
                )
        indptr = np.memmap(indptr_path, dtype=np.int64, mode="r", shape=(n + 1,))
        # an empty file cannot be memory-mapped: rows holding no items
        items = (
            np.memmap(items_path, dtype=np.int32, mode="r", shape=(nnz,))
            if nnz
            else np.empty(0, dtype=np.int32)
        )
        store = cls(path, meta, indptr, items)
        if verify:
            store.verify()
        return store

    def verify(self) -> None:
        """Re-hash both array files against the recorded checksums."""
        for name in (ITEMS_NAME, INDPTR_NAME):
            expected = self.meta["checksums"][name]
            actual = _sha256_hex(self.path / name)
            if actual != expected:
                raise StoreIntegrityError(
                    f"checksum mismatch for {self.path / name}: "
                    f"{actual} != {expected}"
                )

    # -- views -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.meta["n"])

    @property
    def n_items(self) -> int:
        return int(self.meta["n_items"])

    @property
    def nnz(self) -> int:
        return int(self.meta["nnz"])

    @property
    def checksum(self) -> str:
        """The items-file digest: the store's identity for fingerprints."""
        return str(self.meta["checksums"][ITEMS_NAME])

    def nbytes(self) -> int:
        return self.items.nbytes + self.indptr.nbytes

    def sizes(self) -> np.ndarray:
        return np.diff(np.asarray(self.indptr)).astype(np.int64)

    def row_codes(self, i: int) -> np.ndarray:
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return np.asarray(self.items[lo:hi])

    def row_items(self, i: int) -> list[Any]:
        return [self.vocabulary[code] for code in self.row_codes(i)]

    def subset_dataset(self, indices: Iterable[int]) -> TransactionDataset:
        """Gather selected rows into an in-RAM :class:`TransactionDataset`.

        The dataset keeps the *store's* vocabulary so indicator columns
        line up across subsets; a row's ``tid`` is its store row.
        """
        from repro.core.encoding import gather_rows

        rows = np.fromiter(indices, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            raise IndexError("store row index out of range")
        indptr, codes = gather_rows(self.indptr, self.items, rows)
        return TransactionDataset.from_csr(
            indptr, codes, self.vocabulary, tids=rows
        )

    def scorer(self, overlap: bool = False) -> "StoreScorer":
        return StoreScorer(self, overlap=overlap)


def _json_safe_vocabulary(items: list[Any]) -> list[Any]:
    for item in items:
        if not isinstance(item, (str, int, bool)):
            raise StoreIntegrityError(
                "store vocabularies must be JSON-scalar items "
                f"(str/int/bool); got {type(item).__name__}"
            )
    return list(items)


from repro.core.neighbors import SparseTransactionScorer  # noqa: E402


class StoreScorer(SparseTransactionScorer):
    """The sparse CSR scorer rebuilt over a store's memory-maps.

    Reconstructs exactly the fields
    :meth:`SparseTransactionScorer.neighbor_rows` consumes -- the int64
    CSR, transposed CSR, row sizes and global minimum size -- without
    ever materialising an indicator matrix, so the inherited kernel
    (integer prefilter + exact float64 similarity) reproduces the fused
    path's adjacency bit for bit.
    """

    def __init__(
        self, store: TransactionStore | str | os.PathLike[str], overlap: bool = False
    ) -> None:
        from scipy import sparse

        if not isinstance(store, TransactionStore):
            store = TransactionStore.open(store)
        self.store = store
        self.n = len(store)
        indptr = np.asarray(store.indptr)
        indices = np.asarray(store.items)
        data = np.ones(indices.shape[0], dtype=np.int64)
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(self.n, max(store.n_items, 1))
        )
        self._s = matrix
        self._st = matrix.T.tocsr()
        self._sizes = store.sizes()
        self._min_size = int(self._sizes.min()) if self.n else 0
        self._overlap = overlap
