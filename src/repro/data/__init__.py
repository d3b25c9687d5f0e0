"""Data representations used throughout the ROCK reproduction.

This subpackage contains the substrate data model:

* :mod:`repro.data.transactions` -- market-basket transactions
  (sets of items) and the :class:`~repro.data.transactions.TransactionDataset`
  container with its item vocabulary and item-code CSR.
* :mod:`repro.data.records` -- fixed-schema categorical records with
  missing values and the :class:`~repro.data.records.CategoricalDataset`
  container.
* :mod:`repro.data.timeseries` -- time-series points and the
  Up/Down/No categorical derivative transform of Section 5.1 of the
  paper (used for the mutual-funds experiment).
* :mod:`repro.data.io` -- plain-text readers/writers for the UCI
  ``.data`` CSV format and a simple one-transaction-per-line format.
* :mod:`repro.data.store` -- the checksummed on-disk item-code CSR
  (:class:`~repro.data.store.TransactionStore`), opened as a
  :class:`~repro.data.transactions.TransactionDataset` over memory-maps.
"""

from repro.data.records import CategoricalDataset, CategoricalRecord, CategoricalSchema
from repro.data.store import StoreIntegrityError, TransactionStore
from repro.data.timeseries import (
    Movement,
    TimeSeries,
    movements_to_record,
    series_to_categorical_dataset,
)
from repro.data.transactions import Transaction, TransactionDataset

__all__ = [
    "CategoricalDataset",
    "CategoricalRecord",
    "CategoricalSchema",
    "Movement",
    "StoreIntegrityError",
    "TimeSeries",
    "Transaction",
    "TransactionDataset",
    "TransactionStore",
    "movements_to_record",
    "series_to_categorical_dataset",
]
