"""The fit planner: one memory budget picks the neighbor+link route.

Per §4.4 of the paper, neighbor and link computation dominate ROCK's
cost — O(n²·m) set intersections plus O(Σ mᵢ²) link increments.  The
paper computes links in one of two ways: square the adjacency, or run
the Figure 4 neighbor-list loop.  ``repro.core.pipeline.plan_fit``
picks the route from the input and one memory budget: while the dense
n x n similarity matrix fits, the dense route (unless the points share
so few items that scoring only item-sharing pairs is cheaper, as its
reason line shows); past it, a one-pass kernel that scores only
item-sharing pairs and never builds a neighbor-graph object (native C
kernels, or the scipy ``fused`` kernel under ``REPRO_NATIVE=0``).

Every route produces byte-identical clusters; the only differences are
wall-time and peak memory.  This example fits the same baskets under
two budgets and shows the routes, the timings and the agreement.

    python examples/parallel_fit.py
"""

import numpy as np

from repro import RockPipeline
from repro.core.pipeline import plan_fit
from repro.datasets import small_synthetic_basket
from repro.parallel import fused_neighbor_links


def main() -> None:
    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=300, n_outliers=20, seed=3
    )
    points = basket.transactions
    print(f"{len(points)} baskets, 4 planted clusters\n")

    # --- the plan: which route, and why ----------------------------------
    for budget in (None, 1 << 20):
        plan = plan_fit(points, 0.5, memory_budget=budget)
        print(f"memory_budget={budget}: route {plan.backend} ({plan.reason})")
    print()

    # --- one pipeline per budget; everything else identical -------------
    results = {}
    # the host-aware budget takes the dense route; 1 MiB is past the
    # wall, where the one-pass kernel scores row blocks on as many
    # threads as the process has CPUs (result.threads)
    for budget in (None, 1 << 20):
        pipeline = RockPipeline(k=4, theta=0.5, seed=0, memory_budget=budget)
        result = pipeline.fit(points, label_remaining=False)
        results[budget] = result
        timings = result.timings
        print(f"fit route {result.backends['fit']:<12} neighbors+links "
              f"{timings['neighbors'] + timings['links']:6.3f}s  "
              f"-> {result.n_clusters} clusters ({result.threads} thread(s))")

    # --- both routes agree exactly ----------------------------------------
    dense, over_budget = results.values()
    assert np.array_equal(dense.labels, over_budget.labels)
    print("\nboth routes produced byte-identical labels")

    # --- the kernels are also usable directly ---------------------------
    fused = fused_neighbor_links(points, 0.5)
    print(f"fused: {fused.links.nnz_pairs()} linked pairs, "
          f"degrees via fused.degrees (graph never materialised)")


if __name__ == "__main__":
    main()
