"""Native cluster phase: the component engine in one kernel call.

Runs the whole Figure 3 merge phase of the component engine on the C
tier: every component's lazy-heap agglomeration
(:func:`repro.core.merge.component_merge_stream`) and the k-way replay
of their streams (:func:`repro.core.merge._replay_streams`) happen in
one ``merge_components`` call over the packed arrays of
:func:`repro.core.merge.pack_components`.  The kernel returns the
replayed merge history in global ids, the final cluster of every
initial cluster, ``heap_ops`` and ``stopped_early``;
:func:`repro.core.merge.fast_cluster_with_links` builds the
:class:`~repro.core.rock.RockResult` from those arrays.

Bit-identicality carries over because the kernel mirrors the Python
loops statement for statement -- the same ``(-goodness, partner)``
tuple order, the same power-table goodness arithmetic (the table itself
is computed Python-side by the exact scalar ``pow`` of
:class:`~repro.core.goodness.PowerTable` and handed to the kernel), the
same ``(-goodness, u id)`` replay order and the same ``heap_ops``
accounting.

Only the built-in goodness measures are supported; custom callables
run the reference heap loop (:func:`repro.core.merge.merge_engine`) and
never reach this module.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.merge import MergeStream, PackedComponents

__all__ = ["native_component_streams", "native_merge_components"]

_DUMMY_TABLE = np.zeros(1, dtype=np.float64)


def native_merge_components(
    packed: PackedComponents, kernel: Any, backend: Any, k: int, m: int
) -> Any:
    """Agglomerate every component and replay the streams down to ``k``
    of the ``m`` initial clusters; returns the backend's ``MergeRun``."""
    if kernel.name == "naive" or len(packed) == 0:
        ptable = _DUMMY_TABLE
    else:
        # every reachable lo+hi size index is within a component's sum
        largest = np.add.reduceat(packed.sizes, packed.slot_offsets[:-1]).max()
        ptable = kernel.table.ensure(int(largest)).array()
    return backend.merge_components(
        packed.slot_offsets,
        packed.pair_offsets,
        packed.sizes,
        packed.global_ids,
        packed.pair_lo,
        packed.pair_hi,
        packed.pair_count,
        ptable,
        int(kernel.name == "naive"),
        k,
        m,
    )


def native_component_streams(
    packed: PackedComponents, kernel: Any, backend: Any
) -> list[MergeStream]:
    """Each component's stream from the packed call, in
    :meth:`~repro.core.merge.PackedComponents.problems` order -- the
    native counterpart of running ``component_merge_stream`` on every
    problem."""
    m = int(packed.global_ids.max(initial=-1)) + 1
    buffers = native_merge_components(packed, kernel, backend, 1, m).streams
    starts = packed.slot_offsets[:-1] - np.arange(len(packed))
    return [
        MergeStream(
            left=buffers.left[start : start + length],
            right=buffers.right[start : start + length],
            goodness=buffers.goodness[start : start + length],
            sizes=buffers.sizes[start : start + length],
            heap_ops=heap_ops,
        )
        for start, length, heap_ops in zip(
            starts.tolist(),
            buffers.lengths[: len(packed)].tolist(),
            buffers.heap_ops[: len(packed)].tolist(),
        )
    ]
