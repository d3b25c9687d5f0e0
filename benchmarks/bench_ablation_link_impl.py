"""A4 -- ablation: Figure 4 pair-code counting vs the row-blocked matrix square.

Section 4.4 offers both strategies: matrix multiplication (O(n^2.37)
in theory, float32 BLAS row blocks here, :func:`blocked_link_table`)
and the neighbor-list algorithm of Figure 4 (O(sum_i m_i^2)), run as
pair-code counting (:func:`sparse_link_table`): every neighbor pair
becomes the code ``i * n + j`` and the codes are counted by sort plus
run-length reduction -- in C when the native tier probes clean, in
numpy under ``REPRO_NATIVE=0``.  The efficient choice depends on the
pair work relative to ``n^2``: counting wins on sparse graphs, the
blocks on dense ones.  This bench sweeps that ratio and shows where
the ``auto`` gate of :func:`repro.core.links.compute_links`
(``SPARSE_LINK_RATIO``) sits against the measured crossover.
"""

import os
import time

import numpy as np

from repro.core.links import (
    SPARSE_LINK_RATIO,
    blocked_link_table,
    dense_link_matrix,
    sparse_link_table,
)
from repro.core.neighbors import NeighborGraph
from repro.eval import format_table
from repro.native import get_kernels

N = 1200
DEGREES = (4, 16, 30, 42, 60, 260)


def graph_with_density(n, degree, seed):
    """A random symmetric graph with roughly the given mean degree."""
    rng = np.random.default_rng(seed)
    p = min(1.0, degree / (n - 1))
    upper = rng.random((n, n)) < p
    adjacency = np.triu(upper, k=1)
    adjacency = adjacency | adjacency.T
    return NeighborGraph(adjacency)


def best_of(fn, reps=3):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        table = fn()
        times.append(time.perf_counter() - start)
    return min(times), table


def time_numpy_tier(graph):
    """Pair-code counting with the native tier switched off."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        return best_of(lambda: sparse_link_table(graph))
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved


def measure(graph):
    oracle = dense_link_matrix(graph)
    t_blocks, blocks = best_of(lambda: blocked_link_table(graph))
    t_numpy, numpy_table = time_numpy_tier(graph)
    tables = [blocks, numpy_table]
    t_cext = None
    if get_kernels() is not None:
        t_cext, cext_table = best_of(lambda: sparse_link_table(graph))
        tables.append(cext_table)
    for table in tables:
        assert np.array_equal(table.to_dense(), oracle)
    degrees = graph.degrees().astype(np.float64)
    ratio = float(degrees @ degrees) / graph.n**2
    counting = t_cext if t_cext is not None else t_numpy
    return ratio, t_blocks, t_cext, t_numpy, counting


def test_ablation_link_impl(benchmark, save_result):
    graphs = [graph_with_density(N, d, seed=i) for i, d in enumerate(DEGREES)]
    results = [benchmark.pedantic(lambda: measure(graphs[0]), rounds=1, iterations=1)]
    results += [measure(graph) for graph in graphs[1:]]

    # the crossover: counting wins the sparsest graph, the blocks the
    # densest, and auto (below SPARSE_LINK_RATIO -> counting) picks the
    # winner at both ends
    sparse_end, dense_end = results[0], results[-1]
    assert sparse_end[4] < sparse_end[1]
    assert dense_end[1] < dense_end[4]
    assert sparse_end[0] < SPARSE_LINK_RATIO < dense_end[0]

    def ms(seconds):
        return "n/a" if seconds is None else f"{seconds * 1000:.1f} ms"

    rows = []
    for degree, (ratio, t_blocks, t_cext, t_numpy, counting) in zip(DEGREES, results):
        rows.append([
            f"mean degree {degree}", f"{ratio:.2f}", ms(t_blocks), ms(t_cext),
            ms(t_numpy),
            "pair count" if counting < t_blocks else "row blocks",
            "pair count" if ratio < SPARSE_LINK_RATIO else "row blocks",
        ])
    text = format_table(
        ["graph (n=%d)" % N, "sum m^2 / n^2", "row blocks", "pair count (C)",
         "pair count (numpy)", "faster", "auto picks"],
        rows,
        title="Ablation A4: link producer crossover, pair-code counting vs "
              f"row-blocked matrix square (all tables verified identical; "
              f"auto counts pairs below sum m^2 = {SPARSE_LINK_RATIO} n^2)",
    )
    save_result("ablation_link_impl", text)
