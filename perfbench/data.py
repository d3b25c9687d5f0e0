"""Workload inputs, all derived from the run's ``--seed``.

* :func:`clustered_baskets` -- well-separated planted clusters: each
  cluster draws size-10 baskets from its own 14-item pool out of a
  400-item vocabulary, so in-cluster Jaccard clears 0.5 with
  probability ~0.79 and cross-cluster neighbors essentially never occur.
* :func:`paper_basket` -- the Section 5.3 / Table 5 generator, at full
  scale or shrunk to a given size with the same cluster proportions.
* :func:`drifting_stream` -- paper baskets from one seed, then a hard
  switch to another seed whose items are renamed into a disjoint
  vocabulary.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.data.transactions import Transaction, TransactionDataset
from repro.datasets.synthetic_basket import (
    SyntheticBasket,
    SyntheticBasketConfig,
    generate_synthetic_basket,
)

VOCAB = 400
POOL_SIZE = 14
BASKET_SIZE = 10
RENAMED_PREFIX = "b:"


def derive_seed(seed: int, stream: int) -> int:
    """A seed for sub-stream ``stream`` of run seed ``seed`` (stable across runs)."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def clustered_baskets(
    n_clusters: int, per_cluster: int, seed: int
) -> tuple[TransactionDataset, list[int]]:
    """Planted-cluster baskets and their generating cluster per point."""
    rng = np.random.default_rng(derive_seed(seed, 1))
    baskets = []
    truth = []
    for c in range(n_clusters):
        pool = rng.choice(VOCAB, size=POOL_SIZE, replace=False)
        for _ in range(per_cluster):
            items = rng.choice(pool, size=BASKET_SIZE, replace=False)
            baskets.append(frozenset(items.tolist()))
            truth.append(c)
    return TransactionDataset(baskets), truth


def paper_basket(seed: int, n_total: int | None = None) -> SyntheticBasket:
    """The Table 5 data set; ``n_total`` shrinks it keeping the proportions."""
    config = SyntheticBasketConfig()
    if n_total is not None:
        scale = n_total / config.n_transactions
        config = replace(
            config,
            cluster_sizes=tuple(max(1, round(s * scale)) for s in config.cluster_sizes),
            n_outliers=round(config.n_outliers * scale),
        )
    return generate_synthetic_basket(config, seed=derive_seed(seed, 2))


def drifting_stream(
    seed: int, n_arrivals: int, switch_at: int
) -> tuple[list[Transaction], list[int]]:
    """``n_arrivals`` baskets: ``switch_at`` of seed A, then seed B in a disjoint vocabulary.

    Truth labels after the switch are offset by 100 so the two parts
    never share a cluster id; outliers stay -1.
    """
    first = paper_basket(derive_seed(seed, 3), switch_at)
    second = paper_basket(derive_seed(seed, 4), n_arrivals - switch_at)
    records = list(first.transactions)
    truth = list(first.labels)
    for txn, label in zip(second.transactions, second.labels):
        records.append(Transaction(RENAMED_PREFIX + str(item) for item in txn))
        truth.append(label + 100 if label >= 0 else -1)
    return records, truth
