"""Plain-text readers and writers for the data formats used in the paper.

Two formats are supported:

* **UCI ``.data`` CSV** -- one record per line, comma-separated values,
  ``?`` marking a missing value.  This is the on-disk format of the
  Congressional Votes and Mushroom data sets the paper uses; our
  synthetic replicas round-trip through the same format so the loading
  path is exercised end to end.
* **Transactions file** -- one transaction per line, items separated by
  whitespace.  This is the natural serialisation of the market-basket
  synthetic data set of Section 5.3 and is also how the "data on disk"
  of the labeling phase (Section 4.6) is streamed.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.data.records import MISSING, CategoricalDataset, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset

MISSING_TOKEN = "?"


def _open_for_read(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


# ---------------------------------------------------------------------------
# UCI .data CSV
# ---------------------------------------------------------------------------

def read_uci_data(
    source: str | Path | TextIO,
    attributes: list[str],
    label_column: int | None = 0,
) -> CategoricalDataset:
    """Read a UCI-style ``.data`` file into a :class:`CategoricalDataset`.

    Parameters
    ----------
    source:
        Path or open text stream.
    attributes:
        Names for the non-label columns, in file order.
    label_column:
        Index (within the raw CSV row) of the class-label column, or
        ``None`` when the file has no label.  UCI convention puts the
        label first (mushroom) or derives it from the first field
        (votes); both data sets the paper uses have it at column 0.
    """
    stream, owned = _open_for_read(source)
    try:
        schema = CategoricalSchema(attributes)
        rows: list[list[Any]] = []
        labels: list[Any] = []
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            label = None
            if label_column is not None:
                if label_column >= len(fields):
                    raise ValueError(f"line {lineno}: no label column {label_column}")
                label = fields[label_column]
                fields = fields[:label_column] + fields[label_column + 1 :]
            if len(fields) != len(attributes):
                raise ValueError(
                    f"line {lineno}: expected {len(attributes)} values, "
                    f"got {len(fields)}"
                )
            rows.append([MISSING if f == MISSING_TOKEN else f for f in fields])
            labels.append(label)
        return CategoricalDataset(schema, rows, labels=labels)
    finally:
        if owned:
            stream.close()


def write_uci_data(
    dataset: CategoricalDataset,
    target: str | Path | TextIO,
    include_label: bool = True,
) -> None:
    """Write a :class:`CategoricalDataset` in UCI ``.data`` CSV format.

    The label, when included, is written as the first column -- matching
    the layout of the mushroom data set.
    """
    stream, owned = _open_for_write(target)
    try:
        for record in dataset:
            fields = [
                MISSING_TOKEN if v is MISSING else str(v) for v in record.values
            ]
            if include_label:
                fields.insert(0, str(record.label))
            stream.write(",".join(fields) + "\n")
    finally:
        if owned:
            stream.close()


# ---------------------------------------------------------------------------
# Transactions file
# ---------------------------------------------------------------------------

def read_transactions(
    source: str | Path | TextIO,
    vocabulary: list[str] | None = None,
) -> TransactionDataset:
    """Read a one-transaction-per-line, whitespace-separated items file.

    Blank lines and ``#`` lines are skipped; a row's ``tid`` is its
    0-based line number.  Lines are encoded to item codes as they are
    read, so no per-row objects are built.  Without a ``vocabulary``
    the sorted union of the items is used; with one, an item outside it
    raises ``ValueError``.
    """
    stream, owned = _open_for_read(source)
    try:
        code_of = _CodeTable(
            (item, i) for i, item in enumerate(vocabulary or ())
        )
        n_fixed = len(code_of)
        codes = array("i")
        sizes = array("q")
        tids = array("q")
        for lineno, line in enumerate(stream):
            items = line.split()
            if not items or items[0].startswith("#"):
                continue
            row = set(items)
            codes.extend(map(code_of.__getitem__, row))
            sizes.append(len(row))
            tids.append(lineno)
    finally:
        if owned:
            stream.close()
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=indptr[1:])
    codes = np.frombuffer(codes, dtype=np.int32)
    items = list(code_of)
    if vocabulary is None:
        from repro.core.encoding import item_order

        vocabulary = item_order(items)
        position = {item: i for i, item in enumerate(vocabulary)}
        codes = np.array([position[item] for item in items], np.int32)[codes]
    elif len(items) > n_fixed:
        row = int(np.searchsorted(indptr, np.argmax(codes >= n_fixed), "right")) - 1
        t = Transaction(
            [items[c] for c in codes[indptr[row] : indptr[row + 1]]],
            tid=tids[row],
        )
        raise ValueError(
            f"transaction {t!r} contains items outside the vocabulary: "
            f"{sorted(map(repr, t.items.difference(vocabulary)))}"
        )
    return TransactionDataset.from_csr(
        indptr, codes, vocabulary, tids=np.frombuffer(tids, dtype=np.int64)
    )


class _CodeTable(dict):
    """Item -> code; an unseen item takes the next code."""

    def __missing__(self, item: Any) -> int:
        code = self[item] = len(self)
        return code


def write_transactions(
    dataset: Iterable[Transaction],
    target: str | Path | TextIO,
) -> None:
    """Write transactions one per line, items sorted and space-separated.

    Every line reads back as its row: an item starting with ``#`` is
    never written first (the line would read as a comment), and a row
    no line can hold -- an empty row, an item whose text is empty or
    contains whitespace, or only ``#`` items -- raises ``ValueError``.
    """
    stream, owned = _open_for_write(target)
    try:
        for t in dataset:
            stream.write(_basket_line(t) + "\n")
    finally:
        if owned:
            stream.close()


def _basket_line(transaction: Iterable[Any]) -> str:
    items = sorted(str(i) for i in transaction)
    plain = [i for i in items if not i.startswith("#")]
    if not plain or any(i.split() != [i] for i in items):
        raise ValueError(
            f"transaction {transaction!r} cannot be written as a basket "
            "line: it is empty, has only '#' items, or an item is blank "
            "or holds whitespace"
        )
    if plain[0] != items[0]:
        items.remove(plain[0])
        items.insert(0, plain[0])
    return " ".join(items)


def iter_transactions(source: str | Path | TextIO) -> Iterator[Transaction]:
    """Stream transactions from disk one at a time.

    This is the access pattern of the labeling phase (Section 4.6): the
    original data set is *read from disk* sequentially and each point is
    assigned to a cluster without ever materialising the whole database
    in memory.
    """
    stream, owned = _open_for_read(source)
    try:
        for lineno, line in enumerate(stream):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield Transaction(line.split(), tid=lineno)
    finally:
        if owned:
            stream.close()


def transactions_to_string(dataset: Iterable[Transaction]) -> str:
    """Serialise transactions to the transactions-file format in memory."""
    buf = io.StringIO()
    write_transactions(dataset, buf)
    return buf.getvalue()
