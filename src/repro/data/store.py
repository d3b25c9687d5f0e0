"""The on-disk transaction store: an item-code CSR, checksummed.

A transaction database encoded once into three files::

    <store>/store.json   format, n, n_items, nnz, vocabulary, checksums
    <store>/items.i32    item codes, row-major, ascending within a row
    <store>/indptr.i64   n+1 row offsets into items.i32

written chunk-at-a-time (the writer never holds more than
``chunk_rows`` encoded rows) and sha256-checksummed per file, the
metadata included, mirroring the ``RockModel`` integrity scheme.
:meth:`TransactionStore.open` re-checks every checksum and returns a
:class:`~repro.data.transactions.TransactionDataset` over memory-maps
of the two arrays, so the fit of Figure 2 reads a store exactly as it
reads a text file, without copying the CSR.
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
    "TransactionStore",
]

STORE_FORMAT = "rock-shard-store"
STORE_VERSION = 1
META_NAME = "store.json"
ITEMS_NAME = "items.i32"
INDPTR_NAME = "indptr.i64"
DEFAULT_CHUNK_ROWS = 8192

# the keys the writer puts in store.json; stores written before the
# metadata carried its own checksum lack checksums[META_NAME]
META_KEYS = frozenset({
    "format", "version", "n", "n_items", "nnz", "vocabulary", "checksums",
})


class StoreIntegrityError(RuntimeError):
    """A store file is missing, malformed, or fails its checksum."""


def _sha256_hex(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _meta_checksum(meta: dict[str, Any]) -> str:
    """The digest of ``meta``'s canonical JSON, its own entry left out."""
    body = dict(meta)
    body["checksums"] = {
        name: value
        for name, value in meta["checksums"].items()
        if name != META_NAME
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _render_meta(meta: dict[str, Any]) -> str:
    return json.dumps(meta, indent=2) + "\n"


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
    """The on-disk int32 CSR format of a transaction database.

    :meth:`write` and :meth:`from_transactions_file` encode a store;
    :meth:`open` verifies one and returns it as a
    :class:`~repro.data.transactions.TransactionDataset`.  The CLI's
    ``cluster`` and ``fit-model`` read a store when ``--input`` is a
    directory.
    """

    @classmethod
    def write(
        cls,
        path: str | os.PathLike[str],
        transactions: Iterable[Any],
        vocabulary: Iterable[Any] | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> TransactionDataset:
        """Encode ``transactions`` under directory ``path`` and open it.

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
        meta["checksums"][META_NAME] = _meta_checksum(meta)
        tmp = path / (META_NAME + ".tmp")
        tmp.write_text(_render_meta(meta), encoding="utf-8")
        os.replace(tmp, path / META_NAME)
        return cls.open(path)

    @classmethod
    def from_transactions_file(
        cls,
        source: str | os.PathLike[str],
        path: str | os.PathLike[str],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> TransactionDataset:
        """Encode a transactions text file (one basket per line).

        Streams through :func:`repro.data.io.iter_transactions`, so the
        source is never resident in RAM.
        """
        from repro.data.io import iter_transactions

        return cls.write(
            path,
            (txn.items for txn in iter_transactions(source)),
            chunk_rows=chunk_rows,
        )

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> TransactionDataset:
        """Verify a store and return its rows over memory-mapped arrays.

        Every file is re-hashed against the checksums in ``store.json``,
        and ``store.json`` against its own.  A missing, truncated,
        malformed or altered file raises :class:`StoreIntegrityError`;
        so does a CSR that :meth:`TransactionDataset.from_csr` rejects.
        """
        path = Path(path)
        meta = _read_meta(path)
        try:
            n, nnz = int(meta["n"]), int(meta["nnz"])
            vocabulary = meta["vocabulary"]
            if not isinstance(vocabulary, list) or len(vocabulary) != meta["n_items"]:
                raise ValueError("vocabulary does not hold n_items items")
            _json_safe_vocabulary(vocabulary)
            for name, size in ((INDPTR_NAME, (n + 1) * 8), (ITEMS_NAME, nnz * 4)):
                file_path = path / name
                if not file_path.is_file():
                    raise StoreIntegrityError(f"missing {file_path}")
                actual = file_path.stat().st_size
                if actual != size:
                    raise StoreIntegrityError(
                        f"{file_path} is {actual} bytes, expected {size}"
                    )
                if _sha256_hex(file_path) != meta["checksums"][name]:
                    raise StoreIntegrityError(f"checksum mismatch for {file_path}")
            indptr = np.memmap(
                path / INDPTR_NAME, dtype=np.int64, mode="r", shape=(n + 1,)
            )
            # an empty file cannot be memory-mapped: rows holding no items
            items = (
                np.memmap(path / ITEMS_NAME, dtype=np.int32, mode="r", shape=(nnz,))
                if nnz
                else np.empty(0, dtype=np.int32)
            )
            return TransactionDataset.from_csr(indptr, items, vocabulary)
        except (TypeError, ValueError) as exc:
            raise StoreIntegrityError(f"malformed store {path}: {exc}") from exc


def _read_meta(path: Path) -> dict[str, Any]:
    """``store.json``, checked for its format, version, keys and checksum."""
    meta_path = path / META_NAME
    if not meta_path.is_file():
        raise StoreIntegrityError(f"no {META_NAME} under {path}")
    try:
        text = meta_path.read_text(encoding="utf-8")
        meta = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreIntegrityError(f"malformed {meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
        raise StoreIntegrityError(f"{meta_path} is not a {STORE_FORMAT} artifact")
    if meta.get("version") != STORE_VERSION:
        raise StoreIntegrityError(
            f"unsupported store version {meta.get('version')!r}"
        )
    checksums = meta.get("checksums")
    if (
        meta.keys() != META_KEYS
        or not isinstance(checksums, dict)
        or not {ITEMS_NAME, INDPTR_NAME} <= checksums.keys()
        or not checksums.keys() <= {ITEMS_NAME, INDPTR_NAME, META_NAME}
    ):
        raise StoreIntegrityError(f"{meta_path} has unexpected keys")
    # a store written with a metadata checksum must match it and be
    # byte-for-byte the writer's rendering, so no edit goes unseen
    if META_NAME in checksums and (
        checksums[META_NAME] != _meta_checksum(meta) or text != _render_meta(meta)
    ):
        raise StoreIntegrityError(f"checksum mismatch for {meta_path}")
    return meta


def _json_safe_vocabulary(items: list[Any]) -> list[Any]:
    for item in items:
        if not isinstance(item, (str, int, bool)):
            raise StoreIntegrityError(
                "store vocabularies must be JSON-scalar items "
                f"(str/int/bool); got {type(item).__name__}"
            )
    return list(items)
