"""Native component agglomeration: the merge kernel of the component engine.

Replaces the per-component Python inner loop
(:func:`repro.core.merge.component_merge_stream`) with one backend
kernel call per component: the whole lazy-heap agglomeration runs on
flat typed arrays and returns the finished
:class:`~repro.core.merge.MergeStream`, which the unchanged
``_replay_streams`` consumes.  Bit-identicality carries over because
the kernel mirrors the Python loop statement for statement -- the same
``(-goodness, partner)`` tuple order, the same power-table goodness
arithmetic (the table itself is computed Python-side by the exact
scalar ``pow`` of :class:`~repro.core.goodness.PowerTable` and handed
to the kernel), and the same ``heap_ops`` accounting.

Only the built-in goodness measures are supported; custom callables
run the reference heap loop (:func:`repro.core.merge.merge_engine`) and
never reach this module.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.merge import ComponentProblem, MergeStream

__all__ = ["native_component_streams"]

_DUMMY_TABLE = np.zeros(1, dtype=np.float64)


def native_component_streams(
    problems: list[ComponentProblem],
    kernel: Any,
    backend: Any,
    registry: Any | None = None,
) -> list[MergeStream]:
    """Agglomerate every component with the native backend.

    Streams come back in ``problems`` order, exactly like the Python
    inner loop, so ``_replay_streams`` sees the same input regardless
    of engine.
    """
    naive = 1 if kernel.name == "naive" else 0
    streams: list[MergeStream] = []
    for problem in problems:
        if naive:
            ptable = _DUMMY_TABLE
        else:
            # same coverage as kernel.bind(sizes.sum()) on the Python
            # path: every reachable lo+hi index is within 2 * sum
            ptable = kernel.table.ensure(2 * int(problem.sizes.sum())).array()
        left, right, goodness, sizes_out, heap_ops = backend.merge_component(
            problem.sizes,
            problem.pair_lo,
            problem.pair_hi,
            problem.pair_count,
            ptable,
            naive,
        )
        streams.append(
            MergeStream(
                left=left,
                right=right,
                goodness=goodness,
                sizes=sizes_out,
                heap_ops=int(heap_ops),
            )
        )
    if registry is not None:
        registry.inc(
            "fit.cluster.heap_ops", sum(s.heap_ops for s in streams)
        )
    return streams
