"""The synthetic market-basket data set of Section 5.3 (Table 5).

The paper's generator: 114,586 transactions of which ~5% are outliers;
the rest belong to one of 10 clusters with sizes between 5,000 and
15,000.  Each cluster is defined by a set of 19-22 items of which
roughly 40% are shared with other clusters and 60% are exclusive.  A
transaction is generated by randomly selecting items from its cluster's
item set (outliers select from the union of all items); transaction
sizes are normal with mean 15, such that 98% of sizes fall in [11, 19]
(i.e. a standard deviation of 2, clipped).

:func:`generate_synthetic_basket` reproduces that process with the
Table 5 sizes as defaults; :func:`small_synthetic_basket` is a
scaled-down variant for tests and fast benches.
"""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.data.transactions import TransactionDataset

TABLE5_CLUSTER_SIZES = (9736, 13029, 14832, 10893, 13022, 7391, 8564, 11973, 14279, 5411)
TABLE5_ITEMS_PER_CLUSTER = (19, 20, 19, 19, 22, 19, 19, 21, 22, 19)
TABLE5_OUTLIERS = 5456


@dataclass(frozen=True)
class SyntheticBasketConfig:
    """Generator parameters; defaults reproduce Table 5.

    ``overlap_fraction`` of each cluster's items are drawn from a shared
    pool (the "common with items for other clusters" 40%); the rest are
    exclusive to the cluster.  The paper reports 116 distinct items
    across its 10 clusters; with exactly 60% exclusive items the total
    is necessarily a little higher (sum of exclusives alone exceeds
    116), so the shared pool size is the remaining free parameter --
    the default keeps the total item count as close to the paper's as
    the stated fractions allow.
    """

    cluster_sizes: tuple[int, ...] = TABLE5_CLUSTER_SIZES
    items_per_cluster: tuple[int, ...] = TABLE5_ITEMS_PER_CLUSTER
    n_outliers: int = TABLE5_OUTLIERS
    overlap_fraction: float = 0.4
    shared_pool_size: int = 12
    mean_transaction_size: float = 15.0
    std_transaction_size: float = 2.0
    min_transaction_size: int = 2

    def __post_init__(self) -> None:
        if len(self.cluster_sizes) != len(self.items_per_cluster):
            raise ValueError(
                "cluster_sizes and items_per_cluster must have equal length"
            )
        if not self.cluster_sizes:
            raise ValueError("need at least one cluster")
        if any(s < 1 for s in self.cluster_sizes):
            raise ValueError("cluster sizes must be positive")
        if any(m < 2 for m in self.items_per_cluster):
            raise ValueError("clusters need at least 2 defining items")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if self.n_outliers < 0:
            raise ValueError("n_outliers must be non-negative")
        if self.mean_transaction_size <= 0 or self.std_transaction_size < 0:
            raise ValueError("transaction size distribution must be positive")
        if self.min_transaction_size < 1:
            raise ValueError("min_transaction_size must be at least 1")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)

    @property
    def n_transactions(self) -> int:
        return sum(self.cluster_sizes) + self.n_outliers


@dataclass
class SyntheticBasket:
    """A generated market-basket data set with its ground truth.

    ``labels[i]`` is the generating cluster of transaction ``i``
    (0-based), or -1 for outliers.  ``cluster_items[c]`` is the defining
    item set of cluster ``c``.
    """

    transactions: TransactionDataset
    labels: list[int]
    cluster_items: list[frozenset[str]] = field(default_factory=list)
    config: SyntheticBasketConfig = field(default_factory=SyntheticBasketConfig)

    @property
    def n_items(self) -> int:
        return self.transactions.n_items

    def table5_row(self) -> dict[str, list[int]]:
        """The per-cluster statistics of Table 5 for this instance."""
        counts = [0] * (self.config.n_clusters + 1)
        for label in self.labels:
            counts[label if label >= 0 else -1] += 1
        return {
            "transactions": counts[: self.config.n_clusters] + [counts[-1]],
            "items": [len(s) for s in self.cluster_items]
            + [len(frozenset().union(*self.cluster_items))],
        }


def _build_item_sets(
    config: SyntheticBasketConfig, rng: random.Random
) -> list[frozenset[str]]:
    shared_pool = [f"s{i:03d}" for i in range(config.shared_pool_size)]
    cluster_items: list[frozenset[str]] = []
    for c, m in enumerate(config.items_per_cluster):
        n_shared = min(round(config.overlap_fraction * m), len(shared_pool))
        n_exclusive = m - n_shared
        exclusive = [f"c{c:02d}x{j:02d}" for j in range(n_exclusive)]
        shared = rng.sample(shared_pool, n_shared) if n_shared else []
        cluster_items.append(frozenset(exclusive + shared))
    return cluster_items


def _draw_size(config: SyntheticBasketConfig, limit: int, rng: random.Random) -> int:
    size = round(rng.gauss(config.mean_transaction_size, config.std_transaction_size))
    return max(config.min_transaction_size, min(size, limit))


def generate_synthetic_basket(
    config: SyntheticBasketConfig | None = None,
    seed: int | None = 0,
) -> SyntheticBasket:
    """Generate one instance of the Section 5.3 data set.

    Deterministic for a fixed seed.  Transactions are emitted in a
    random global order (cluster memberships interleaved), as a database
    scan would see them.
    """
    if config is None:
        config = SyntheticBasketConfig()
    rng = random.Random(seed)
    cluster_items = _build_item_sets(config, rng)
    all_items = sorted(frozenset().union(*cluster_items))

    order: list[int] = []
    for c, size in enumerate(config.cluster_sizes):
        order.extend([c] * size)
    order.extend([-1] * config.n_outliers)
    rng.shuffle(order)

    # code pools follow the sorted item pools, so rng.sample draws the
    # same positions it would from the items themselves
    code_of = {item: code for code, item in enumerate(all_items)}
    pools = [[code_of[item] for item in sorted(items)] for items in cluster_items]
    outlier_pool = list(range(len(all_items)))
    sizes = array("q")
    codes = array("i")
    for label in order:
        pool = outlier_pool if label == -1 else pools[label]
        size = _draw_size(config, len(pool), rng)
        codes.extend(rng.sample(pool, size))
        sizes.append(size)
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=indptr[1:])
    dataset = TransactionDataset.from_csr(
        indptr,
        np.frombuffer(codes, dtype=np.int32),
        all_items,
        tids=np.arange(len(order), dtype=np.int64),
    )
    return SyntheticBasket(
        transactions=dataset,
        labels=order,
        cluster_items=cluster_items,
        config=config,
    )


def write_basket_file(
    path: str | os.PathLike[str],
    n: int,
    *,
    n_clusters: int | None = None,
    items_per_cluster: int = 20,
    outlier_fraction: float = 0.05,
    chunk_rows: int = 8192,
    seed: int | None = 0,
    labels_path: str | os.PathLike[str] | None = None,
) -> dict[str, int]:
    """Stream a synthetic basket transactions file of ``n`` rows to disk.

    The out-of-core companion of :func:`generate_synthetic_basket`: the
    same generative process (cluster item pools, shared overlap, normal
    transaction sizes, shuffled global order) but rows are written in
    ``chunk_rows``-sized batches instead of materialising a
    :class:`~repro.data.transactions.TransactionDataset`, so ``n`` can
    exceed what fits in memory.  Peak state is one chunk of text plus
    the O(n) label order.  Deterministic per seed: with a matching
    config the file is byte-identical to ``write_transactions`` over
    :func:`generate_synthetic_basket`.

    ``n_clusters`` defaults to ``max(2, n // 1000)`` so cluster sizes
    stay roughly constant as ``n`` grows.  When ``labels_path`` is
    given, ground-truth labels (-1 for outliers) stream there too, one
    per line.  Returns a summary dict (rows, clusters, outliers,
    distinct items).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    if n_clusters is None:
        n_clusters = max(2, n // 1000)
    n_outliers = round(n * outlier_fraction)
    n_clustered = n - n_outliers
    if n_clustered < n_clusters:
        raise ValueError(
            f"n={n} leaves {n_clustered} clustered rows for "
            f"{n_clusters} clusters; lower n_clusters or outlier_fraction"
        )
    base, extra = divmod(n_clustered, n_clusters)
    config = SyntheticBasketConfig(
        cluster_sizes=tuple(
            base + (1 if c < extra else 0) for c in range(n_clusters)
        ),
        items_per_cluster=tuple([items_per_cluster] * n_clusters),
        n_outliers=n_outliers,
        shared_pool_size=max(4, round(0.4 * items_per_cluster)),
    )
    rng = random.Random(seed)
    cluster_items = _build_item_sets(config, rng)
    all_items = sorted(frozenset().union(*cluster_items))
    pools = [sorted(items) for items in cluster_items]

    order: list[int] = []
    for c, size in enumerate(config.cluster_sizes):
        order.extend([c] * size)
    order.extend([-1] * n_outliers)
    rng.shuffle(order)

    with open(path, "w", encoding="utf-8") as stream:
        label_stream = (
            None
            if labels_path is None
            else open(labels_path, "w", encoding="utf-8")
        )
        try:
            buffer: list[str] = []
            for label in order:
                pool = all_items if label == -1 else pools[label]
                size = _draw_size(config, len(pool), rng)
                buffer.append(" ".join(sorted(rng.sample(pool, size))))
                if len(buffer) >= chunk_rows:
                    stream.write("\n".join(buffer) + "\n")
                    buffer.clear()
                if label_stream is not None:
                    label_stream.write(f"{label}\n")
            if buffer:
                stream.write("\n".join(buffer) + "\n")
        finally:
            if label_stream is not None:
                label_stream.close()
    return {
        "rows": n,
        "clusters": n_clusters,
        "outliers": n_outliers,
        "items": len(all_items),
    }


def small_synthetic_basket(
    n_clusters: int = 4,
    cluster_size: int = 150,
    n_outliers: int = 30,
    items_per_cluster: int = 20,
    seed: int | None = 0,
) -> SyntheticBasket:
    """A scaled-down instance with the same structure, for tests and quick runs."""
    config = SyntheticBasketConfig(
        cluster_sizes=tuple([cluster_size] * n_clusters),
        items_per_cluster=tuple([items_per_cluster] * n_clusters),
        n_outliers=n_outliers,
        shared_pool_size=max(4, round(0.4 * items_per_cluster)),
    )
    return generate_synthetic_basket(config, seed=seed)
