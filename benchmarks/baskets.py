"""The basket generators shared by the fit and assignment benches.

Well-separated market baskets: each cluster draws size-10 transactions
from its own 14-item pool out of a 400-item vocabulary.  In-cluster
Jaccard clears theta=0.5 with probability ~0.79 (needs 7 of 10 items
shared); cross-cluster pools share ~0.5 items on average, so
cross-cluster neighbors are essentially impossible and every planted
cluster should come back pure.

:func:`table5_baskets` draws the paper's Table 5 generator data at any
size, optionally from several renamed-apart vocabularies.
"""

from dataclasses import replace

import numpy as np

from repro.data.transactions import TransactionDataset
from repro.datasets import SyntheticBasketConfig, generate_synthetic_basket

VOCAB = 400
POOL_SIZE = 14
TXN_SIZE = 10
PER_CLUSTER = 24


def make_clustered_baskets(
    n_clusters: int, seed: int = 0, per_cluster: int = PER_CLUSTER
) -> TransactionDataset:
    """``n_clusters * per_cluster`` baskets, cluster by cluster in order."""
    rng = np.random.default_rng(seed)
    transactions = []
    for _ in range(n_clusters):
        pool = rng.choice(VOCAB, size=POOL_SIZE, replace=False)
        for _ in range(per_cluster):
            transactions.append(
                frozenset(rng.choice(pool, size=TXN_SIZE, replace=False).tolist())
            )
    return TransactionDataset(transactions)


def mean_purity(labels: np.ndarray, n_clusters: int) -> float:
    """Mean modal-label fraction over the generated (true) clusters."""
    purities = []
    for c in range(n_clusters):
        block = labels[c * PER_CLUSTER : (c + 1) * PER_CLUSTER]
        block = block[block >= 0]
        if block.size == 0:
            purities.append(0.0)
            continue
        _, counts = np.unique(block, return_counts=True)
        purities.append(counts.max() / PER_CLUSTER)
    return float(np.mean(purities))


def impure_clusters(labels: np.ndarray) -> int:
    """Found clusters holding points of more than one generated cluster."""
    truth = np.arange(labels.size) // PER_CLUSTER
    found = labels >= 0
    pairs = np.unique(np.stack([labels[found], truth[found]]), axis=1)
    _, sources = np.unique(pairs[0], return_counts=True)
    return int((sources > 1).sum())


def table5_baskets(n: int, vocabularies: int = 1, seed: int = 0):
    """``n`` Table 5 generator baskets (Section 5.3 proportions).

    ``vocabularies=2`` draws half of them from a second instance whose
    items are renamed apart: the mixed window a stream reservoir holds
    after a vocabulary switch.
    """
    baskets = []
    for part in range(vocabularies):
        config = SyntheticBasketConfig()
        scale = n / vocabularies / config.n_transactions
        config = replace(
            config,
            cluster_sizes=tuple(max(1, round(s * scale)) for s in config.cluster_sizes),
            n_outliers=round(config.n_outliers * scale),
        )
        data = generate_synthetic_basket(config, seed=seed + part)
        baskets += [
            frozenset(f"{part}:{item}" for item in txn)
            for txn in data.transactions
        ]
    return TransactionDataset(baskets)
