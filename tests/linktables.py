"""Shared test helper: a :class:`LinkTable` from ``(i, j, count)`` triples."""

import numpy as np

from repro.core.links import LinkTable


def link_table(n, triples):
    """Sum ``(i, j, count)`` triples into a table, as Figure 4 would.

    Either orientation of a pair adds to the same entry; the summed
    pairs go through :meth:`LinkTable.from_pair_counts`, so a self pair
    or a non-positive total raises ``ValueError``.
    """
    summed = {}
    for i, j, count in triples:
        key = (min(i, j), max(i, j))
        summed[key] = summed.get(key, 0) + count
    codes = np.array([i * n + j for i, j in summed], dtype=np.int64)
    return LinkTable.from_pair_counts(n, codes, np.array(list(summed.values())))
