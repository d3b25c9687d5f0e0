"""The merge engines: one picked for you, all byte-identical.

The Figure 3 merge loop is greedy global agglomeration -- at every
step, merge the pair with the best goodness.  The component engine
(``repro.core.merge``) gets the same answer another way: cross-cluster
goodness is positive only inside a connected component of the link
graph, so each component can be agglomerated independently to
exhaustion and the per-component merge streams replayed in descending
head-goodness order.  The replay reproduces the reference loop's
result byte for byte -- clusters, the full ``MergeStep`` history with
bitwise-identical goodness floats, and the ``stopped_early`` flag.

No option picks the engine.  ``cluster_with_links`` runs the component
engine for the built-in goodness measures -- its inner loop on the
``repro.native`` C kernel where that probes clean, in Python under
``REPRO_NATIVE=0`` -- and the reference loop for a custom goodness
callable.  ``heap_cluster_with_links`` is the reference loop itself.

    python examples/merge_engine.py
"""

import time

import numpy as np

from repro import RockPipeline
from repro.core import (
    cluster_with_links,
    compute_neighbor_graph,
    default_f,
    goodness,
    heap_cluster_with_links,
    merge_engine,
)
from repro.core.links import sparse_link_table
from repro.datasets import small_synthetic_basket
from repro.obs import MetricsRegistry


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main() -> None:
    basket = small_synthetic_basket(
        n_clusters=6, cluster_size=250, n_outliers=30, seed=5
    )
    points = basket.transactions
    print(f"{len(points)} baskets, 6 planted clusters\n")

    # --- same links, the reference loop and the default engine ----------
    graph = compute_neighbor_graph(points, 0.5)
    links = sparse_link_table(graph)
    f_theta = default_f(0.5)

    heap, heap_s = timed(
        lambda: heap_cluster_with_links(links, k=6, f_theta=f_theta)
    )
    fast, fast_s = timed(lambda: cluster_with_links(links, k=6, f_theta=f_theta))
    print(f"reference heap loop   cluster phase {heap_s:6.3f}s -> "
          f"{len(heap.clusters)} clusters")
    print(f"default engine ({merge_engine(goodness)}) cluster phase "
          f"{fast_s:6.3f}s -> {len(fast.clusters)} clusters")

    # --- the histories are identical, merge for merge -------------------
    assert heap.clusters == fast.clusters
    assert heap.merges == fast.merges          # bitwise goodness floats
    assert heap.stopped_early == fast.stopped_early
    print(f"\nbyte-identical: {len(heap.merges)} merges, "
          f"first goodness {heap.merges[0].goodness!r} == "
          f"{fast.merges[0].goodness!r}")

    # --- the engine reports its shape through a registry ----------------
    registry = MetricsRegistry()
    cluster_with_links(links, k=6, f_theta=f_theta, registry=registry)
    counters = registry.snapshot()["counters"]
    print(f"components merged independently: "
          f"{counters['fit.cluster.components']}, "
          f"heap operations: {counters['fit.cluster.heap_ops']}")

    # --- a custom goodness callable runs the reference loop --------------
    def same_goodness(count, ni, nj, f):
        return goodness(count, ni, nj, f)

    fits = {
        "default": RockPipeline(k=6, theta=0.5, seed=0).fit(
            points, label_remaining=False
        ),
        "custom": RockPipeline(
            k=6, theta=0.5, seed=0, goodness_fn=same_goodness
        ).fit(points, label_remaining=False),
    }
    assert np.array_equal(fits["default"].labels, fits["custom"].labels)
    print(f"pipeline fits agree exactly: backends['merge'] = "
          f"{fits['default'].backends['merge']!r} and "
          f"{fits['custom'].backends['merge']!r}")


if __name__ == "__main__":
    main()
