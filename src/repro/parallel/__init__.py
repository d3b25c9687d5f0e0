"""Chunked multi-worker execution for the fit kernels.

The ROCK cost profile (paper Section 4.4) is dominated by the neighbor
and link kernels -- ``O(n^2 m)`` set intersections plus ``O(sum m_i^2)``
link increments.  This package runs them as row blocks that fan out
across a process pool:

* :mod:`repro.parallel.pool` -- the generic chunked-execution layer
  (order-preserving ``imap`` over a worker pool whose one-time payload
  travels through the pool initializer, with a transparent serial
  fallback) and the row-block schedule (:func:`block_tasks`,
  :func:`worker_block_size`).
* :mod:`repro.parallel.links` -- the **fused** neighbor+link kernel
  (:func:`~repro.parallel.links.fused_neighbor_links`) that scores row
  blocks into neighbor lists and counts their links by the rule every
  producer follows, and the numpy Figure 4 pair counter of the
  out-of-core shard coordinator.

The fit planner (:func:`repro.core.pipeline.plan_fit`) runs the fused
kernel when it plans shared-item scoring (the dense ``n x n`` matrix
would overflow the memory budget, or the points share few items) and
the C tier of :mod:`repro.native` cannot run.  Every kernel here is
a pure optimisation: outputs are exactly equal to the dense path
(property-tested), and merges preserve block order so runs are
deterministic for any worker count.
"""

from repro.parallel.links import (
    FusedFitResult,
    fused_neighbor_links,
    merge_pair_counts,
    pair_link_counts,
)
from repro.parallel.pool import (
    block_tasks,
    default_workers,
    imap_chunked,
    resolve_workers,
    worker_block_size,
)

__all__ = [
    "FusedFitResult",
    "block_tasks",
    "default_workers",
    "fused_neighbor_links",
    "imap_chunked",
    "merge_pair_counts",
    "pair_link_counts",
    "resolve_workers",
    "worker_block_size",
]
