"""Row-block execution for the fit kernels.

The ROCK cost profile (paper Section 4.4) is dominated by the neighbor
and link kernels -- ``O(n^2 m)`` set intersections plus ``O(sum m_i^2)``
link increments.  Neighbor rows are independent, so this package runs
them as row blocks mapped over threads:

* :mod:`repro.parallel.pool` -- the in-process block map
  (:func:`~repro.parallel.pool.map_blocks`: an order-preserving map
  over a per-call thread pool, inline below two blocks), the derived
  :func:`~repro.parallel.pool.thread_count` and the row-block schedule
  (:func:`block_tasks`, :func:`block_rows`).  The kernels it maps
  release the GIL (ctypes calls, the scipy sparse product).
* :mod:`repro.parallel.links` -- the **fused** neighbor+link kernel
  (:func:`~repro.parallel.links.fused_neighbor_links`) that scores row
  blocks into neighbor lists and counts their links by the rule every
  producer follows, and the numpy Figure 4 pair counter
  (:func:`~repro.parallel.links.pair_link_counts`) that counts links
  where neither the C tier nor scipy is available.

The fit planner (:func:`repro.core.pipeline.plan_fit`) runs the fused
kernel when it plans shared-item scoring (the dense ``n x n`` matrix
would overflow the memory budget, or the points share few items) and
the C tier of :mod:`repro.native` cannot run.  Every kernel here is
a pure optimisation: outputs are exactly equal to the dense path
(property-tested), and blocks are stitched in block order so runs are
deterministic for any thread count.
"""

from repro.parallel.links import (
    FusedFitResult,
    fused_neighbor_links,
    pair_link_counts,
)
from repro.parallel.pool import (
    block_rows,
    block_tasks,
    map_blocks,
    thread_count,
)

__all__ = [
    "FusedFitResult",
    "block_rows",
    "block_tasks",
    "fused_neighbor_links",
    "map_blocks",
    "pair_link_counts",
    "thread_count",
]
