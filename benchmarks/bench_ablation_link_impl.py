"""A4 -- ablation: Figure 4 row-wise link counting vs the row-blocked matrix square.

Section 4.4 offers both strategies: matrix multiplication (O(n^2.37)
in theory, float32 BLAS row blocks here, :func:`blocked_link_table`)
and the neighbor-list algorithm of Figure 4 (O(sum_i m_i^2)), run one
output row at a time (:func:`sparse_link_table`, Gustavson's sparse
``A @ A``): the C ``link_rows`` kernel when the native tier probes
clean, scipy's CSR product under ``REPRO_NATIVE=0``.  Rows cost grows
with the pair work ``sum m^2``, the square with ``n^3``, so the
efficient choice depends on ``sum m^2 / n^3``.

The sweep runs planted-clump neighbor graphs (the shape planted
baskets produce: clusters of points, each pair inside a cluster a
neighbor with probability 0.8) at two sizes, finds each tier's
break-even ``sum m^2 / n^3`` at each size, and checks that
``SQUARE_LINK_WORK`` -- the constant :func:`repro.core.links.square_pays`
reads -- sits between them, so ``auto`` picks the winner at both ends.
"""

import statistics
import time

import numpy as np

from benchmarks.machine import machine_summary, native_off
from repro.core.links import (
    SQUARE_LINK_WORK,
    blocked_link_table,
    dense_link_matrix,
    sparse_link_table,
)
from repro.core.neighbors import NeighborGraph
from repro.eval import format_table
from repro.native import get_kernels

SIZES = (1000, 2000)
CLUSTERS = (2, 4, 6, 8, 12, 16, 32)
IN_CLUSTER = 0.8
REPS = 3


def planted_clumps(n, n_clusters, seed):
    """``n`` points dealt round-robin into clusters; in-cluster pairs
    are neighbors with probability ``IN_CLUSTER``."""
    rng = np.random.default_rng(seed)
    label = np.arange(n) % n_clusters
    same = label[:, None] == label[None, :]
    upper = np.triu((rng.random((n, n)) < IN_CLUSTER) & same, k=1)
    return NeighborGraph(upper | upper.T)


def median_of(fn, reps=REPS):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        table = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), table


def measure(graph, tier):
    """Median seconds of the square and of the tier's row count."""
    t_square, square = median_of(lambda: blocked_link_table(graph))
    t_rows, rows = median_of(lambda: sparse_link_table(graph))
    expected = "rows:cext" if tier == "cext" else "spgemm"
    assert rows.producer == expected, rows.producer
    for table in (square, rows):
        assert np.array_equal(table.to_dense(), dense_link_matrix(graph))
    degrees = graph.degrees().astype(np.float64)
    return {
        "tier": tier, "n": graph.n, "work": float(degrees @ degrees) / graph.n**3,
        "square_ms": 1e3 * t_square, "rows_ms": 1e3 * t_rows,
    }


def break_even(rows):
    """The ``sum m^2 / n^3`` where the square starts winning (log-interpolated)."""
    rows = sorted(rows, key=lambda row: row["work"])
    gains = [np.log(row["square_ms"] / row["rows_ms"]) for row in rows]
    for low, high, g_low, g_high in zip(rows, rows[1:], gains, gains[1:]):
        if g_low > 0 >= g_high:
            w = g_low / (g_low - g_high)
            return float(np.exp(
                (1 - w) * np.log(low["work"]) + w * np.log(high["work"])
            ))
    return None


def sweep():
    tiers = ["numpy"] if get_kernels() is None else ["cext", "numpy"]
    results = []
    for tier in tiers:
        for n in SIZES:
            for c in CLUSTERS:
                graph = planted_clumps(n, c, seed=c)
                if tier == "numpy":
                    with native_off():
                        results.append(measure(graph, tier))
                else:
                    results.append(measure(graph, tier))
    return results


def test_ablation_link_impl(benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = []
    evens = {}
    for tier in sorted({row["tier"] for row in results}):
        for n in SIZES:
            mine = [r for r in results if r["tier"] == tier and r["n"] == n]
            mine.sort(key=lambda r: r["work"])
            # rows win the sparsest shape, the square the densest, and
            # the constant routes both ends to their winner
            assert mine[0]["rows_ms"] < mine[0]["square_ms"], (tier, n)
            assert mine[-1]["square_ms"] < mine[-1]["rows_ms"], (tier, n)
            assert mine[0]["work"] < SQUARE_LINK_WORK[tier] < mine[-1]["work"]
            evens[tier, n] = break_even(mine)
    tracer = Tracer()
    for row in results:
        key = f"bench.a4.{row['tier']}.{row['n']}.{row['work']:.4f}"
        tracer.registry.set_gauge(f"{key}.square_ms", row["square_ms"])
        tracer.registry.set_gauge(f"{key}.rows_ms", row["rows_ms"])
    for tier in sorted({row["tier"] for row in results}):
        found = [evens[tier, n] for n in SIZES if evens[tier, n] is not None]
        fit = float(np.exp(np.mean(np.log(found)))) if found else None
        lines.append(
            f"{tier}: break-even sum m^2 / n^3 "
            + ", ".join(
                f"{'none' if evens[tier, n] is None else f'{evens[tier, n]:.4f}'}"
                f" at n={n}"
                for n in SIZES
            )
            + ("" if fit is None else f"; geometric mean {fit:.4f}")
            + f"; SQUARE_LINK_WORK = {SQUARE_LINK_WORK[tier]:g}"
        )
    rows = [
        [
            r["tier"], str(r["n"]), f"{r['work']:.4f}",
            f"{r['work'] * r['n']:.1f}", f"{r['square_ms']:.1f} ms",
            f"{r['rows_ms']:.1f} ms",
            "rows" if r["rows_ms"] < r["square_ms"] else "square",
            "square" if r["work"] >= SQUARE_LINK_WORK[r["tier"]] else "rows",
        ]
        for r in results
    ]
    text = format_table(
        ["tier", "n", "sum m^2 / n^3", "sum m^2 / n^2", "row-block square",
         "rows", "faster", "auto picks"],
        rows,
        title="Ablation A4: link producer crossover, row-wise counting "
              "(C link_rows, or scipy SpGEMM under REPRO_NATIVE=0) vs the "
              f"row-blocked matrix square; planted clumps (in-cluster "
              f"neighbor probability {IN_CLUSTER}), median of {REPS}, all "
              "tables verified identical",
    )
    save_result(
        "ablation_link_impl",
        "\n".join([text, "", *lines, "", machine_summary()]),
    )
    save_manifest(
        "ablation_link_impl",
        RunManifest.from_tracer(
            "bench_ablation_link_impl", tracer,
            config={
                "sizes": list(SIZES), "clusters": list(CLUSTERS),
                "in_cluster": IN_CLUSTER, "reps": REPS,
                "square_link_work": dict(SQUARE_LINK_WORK),
                "break_even": {f"{t}:{n}": v for (t, n), v in evens.items()},
            },
        ),
    )
