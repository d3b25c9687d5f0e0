"""The fit past the memory wall: the one-pass kernels, per thread count.

When the dense ``n x n`` similarity matrix would overflow the memory
budget, the fit planner (:func:`repro.core.pipeline.plan_fit`) runs one
of two one-pass neighbor+link kernels on the clustered-basket generator
of :mod:`benchmarks.baskets`:

* ``fused:T`` -- ``fused_neighbor_links`` on T block threads (CSR
  intersection scorer with integer prefilter, numpy pair counting);
  the route under ``REPRO_NATIVE=0`` or where the C tier is missing.
* ``native:T`` -- ``native_neighbor_links`` on T block threads: the
  fused pass with the block kernel and pair reduction run in C
  (:mod:`repro.native`).  Skipped when no backend probes; the one-time
  backend warmup (C compile + probe) is timed separately and excluded
  from the steady-state numbers.

Nothing configures the thread count; a variant forces it the way the
tests do, by replacing :func:`repro.parallel.pool.thread_count`.  The
curve is 1 thread against the count the host derives (its CPU
affinity, capped at 8); on a one-CPU host it has the one point, and the
machine block in the saved results records the CPU count so the
numbers read honestly either way.

Each variant runs in a **fresh subprocess** (this file doubles as the
runner: ``python bench_parallel_fit.py --variant fused:2 --n-clusters
1260``) so ``ru_maxrss`` is a true per-variant high-water mark.  Three
benches:

* the **smoke** test (``make bench-smoke``, 2 threads) proves both
  routes label-identical to the dense route end to end;
* ``test_parallel_fit_scale`` (slow, n >= 30k) records the thread
  curve, the median of ``SCALE_REPS`` fresh processes per variant, and
  asserts native:1 >= 3x fused:1;
* ``test_fit_past_the_memory_wall`` (slow, n = 33,600) fits on the
  planner's own route where the dense matrix would take ~9 GB, and
  asserts that nothing densifies, that peak RSS stays under half the
  dense matrix, and that every planted cluster comes back pure.

The variant timings cover the neighbor+link stage only -- the merge
loop is identical across variants.

``test_neighbor_gate_crossover`` (and its ``smoke`` variant) is the
sweep behind the planner's in-budget gates
(``repro.core.pipeline.SHARED_PAIR_RATIO``, one per tier): planted
baskets whose shared-item pair work ``S`` spans about 0.1-10 times
``n^2 / 2``, plus Table 5 generator baskets at n = 1,000 and 2,000
(one vocabulary, and two as a stream window holds after a switch),
each run through ``run_fit_plan`` on the dense route and on the
shared-item route, on both tiers (native, and the fused kernel under
``REPRO_NATIVE=0``), with the break-even ``S / (n^2 / 2)`` of each
tier.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
for path in (SRC, str(ROOT)):  # direct `-m` runner invocation
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.baskets import (  # noqa: E402
    impure_clusters,
    make_clustered_baskets,
    mean_purity,
    table5_baskets,
)
from benchmarks.machine import machine_summary  # noqa: E402
from repro.core import RockPipeline  # noqa: E402

THETA = 0.5
SCALE_REPS = 5
SLOW_N_CLUSTERS = 1260  # x24 points/cluster = 30,240 points
WALL_N_CLUSTERS = 1400  # x24 points/cluster = 33,600 points
SMOKE_N_CLUSTERS = 30

# the gate sweep: fit-full's 1,680 points in 1..192 planted clusters
# (S / (n^2 / 2) about 8.3 / clusters), median of GATE_REPS per route
GATE_N = 1680
GATE_CLUSTERS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 48, 96, 192)
GATE_REPS = 5
# the Table 5 generator shapes: the paper-basket sample and stream windows
GATE_TABLE5_SIZES = (1000, 2000)
SMOKE_GATE_N = 240
SMOKE_GATE_CLUSTERS = (1, 24)


def peak_rss_bytes() -> int:
    """High-water RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def thread_curve() -> tuple[int, ...]:
    """1 thread, and the count this host derives when that is more."""
    from repro.parallel.pool import thread_count

    return tuple(sorted({1, thread_count()}))


def run_variant(variant: str, n_clusters: int) -> dict:
    """Time one neighbor+link kernel configuration; meant for a fresh process."""
    import repro.parallel.pool as pool
    from repro.parallel import fused_neighbor_links

    dataset = make_clustered_baskets(n_clusters)
    name, _, arg = variant.partition(":")
    threads = int(arg) if arg else 1
    backend = None
    warmup_s = 0.0

    if name == "fused":
        kernel = fused_neighbor_links
    elif name == "native":
        import repro.native as native_mod
        from repro.native.links import native_neighbor_links

        # one-time backend warmup (C compile + probe) is a
        # per-process cost, not a per-fit one: report it separately
        warm_start = time.perf_counter()
        backend = native_mod.available_backend()
        warmup_s = time.perf_counter() - warm_start
        if backend is None:
            raise SystemExit("no native backend available")
        kernel = native_neighbor_links
    else:
        raise SystemExit(f"unknown variant {variant!r}")
    # the process runs this one variant, so the forced count needs no
    # undoing (unittest.mock would add its imports to the peak RSS)
    pool.thread_count = lambda: threads
    start = time.perf_counter()
    links = kernel(dataset, THETA).links
    seconds = time.perf_counter() - start
    return {
        "variant": variant,
        "n": len(dataset),
        "seconds_total": seconds,
        "seconds_warmup": warmup_s,
        "backend": backend,
        "linked_pairs": links.nnz_pairs(),
        "peak_rss": peak_rss_bytes(),
    }


def measure_fresh(variant: str, n_clusters: int) -> dict:
    """Run one variant in a fresh interpreter so RSS peaks don't bleed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.bench_parallel_fit",
            "--variant", variant, "--n-clusters", str(n_clusters),
        ],
        capture_output=True, text=True, env=env, check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def format_curve(rows: list[dict], baseline: dict) -> list[str]:
    lines = [
        f"{'variant':<12} {'total_s':>8} {'vs ' + baseline['variant']:>11} "
        f"{'peak_rss_mb':>12}",
    ]
    for row in rows:
        speedup = baseline["seconds_total"] / max(row["seconds_total"], 1e-9)
        lines.append(
            f"{row['variant']:<12} {row['seconds_total']:>8.2f} "
            f"{speedup:>10.2f}x {row['peak_rss'] / 1024**2:>12.1f}"
        )
    return lines


def measure_traced(variant: str, n_clusters: int, tracer=None) -> dict:
    """``measure_fresh`` under a span, with the row mirrored as gauges."""
    if tracer is None:
        return measure_fresh(variant, n_clusters)
    with tracer.span(variant, n_clusters=n_clusters):
        row = measure_fresh(variant, n_clusters)
    tracer.registry.set_gauge(f"bench.{variant}.seconds_total", row["seconds_total"])
    tracer.registry.set_gauge(f"bench.{variant}.peak_rss", row["peak_rss"])
    return row


def median_rows(runs: list[dict]) -> list[dict]:
    """One row per variant, in first-seen order: the median seconds and
    peak RSS over its runs, with the runs' seconds kept as ``all_s``."""
    import statistics

    by_variant: dict[str, list[dict]] = {}
    for run in runs:
        by_variant.setdefault(run["variant"], []).append(run)
    return [
        {
            **mine[0],
            "seconds_total": statistics.median(r["seconds_total"] for r in mine),
            "peak_rss": statistics.median(r["peak_rss"] for r in mine),
            "all_s": [r["seconds_total"] for r in mine],
        }
        for mine in by_variant.values()
    ]


def kernels_available() -> list[str]:
    import repro.native as native_mod

    return ["fused"] + (["native"] if native_mod.available_backend() else [])


def dense_route_clusters(dataset, k: int) -> list[list[int]]:
    """The pipeline's clusters, from the dense route run without the planner."""
    from repro.core.goodness import default_f
    from repro.core.neighbors import resolve_memory_budget
    from repro.core.pipeline import FitPlan, run_fit_plan
    from repro.core.rock import cluster_with_links
    from repro.obs import Tracer

    plan = FitPlan("dense", "dense", resolve_memory_budget(None), "reference")
    stages = run_fit_plan(plan, dataset, THETA, tracer=Tracer())
    result = cluster_with_links(stages.links, k=k, f_theta=default_f(THETA))
    kept = stages.kept.tolist()
    return sorted(
        (sorted(kept[p] for p in cluster) for cluster in result.clusters),
        key=lambda members: (-len(members), members[0]),
    )


def test_parallel_fit_smoke(benchmark, save_result, save_manifest):
    """Small-n: both one-pass routes label-identical to the dense route."""
    from unittest import mock

    import repro.parallel.pool as pool
    from repro.obs import RunManifest, Tracer

    n_clusters = SMOKE_N_CLUSTERS
    dataset = make_clustered_baskets(n_clusters)
    base = dict(k=n_clusters, theta=THETA, sample_size=None, seed=0)
    dense = dense_route_clusters(dataset, n_clusters)
    kernels = kernels_available()
    for kernel in kernels:
        with mock.patch.dict(os.environ), mock.patch.object(
            pool, "thread_count", lambda: 2
        ):
            if kernel == "fused":
                os.environ["REPRO_NATIVE"] = "0"
            result = RockPipeline(**base, memory_budget=1).fit(
                dataset, label_remaining=False
            )
        assert result.backends["fit"].startswith(kernel), result.backends
        assert result.clusters == dense, kernel

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows",
            [measure_traced(f"{k}:2", n_clusters, tracer) for k in kernels],
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    assert len({row["linked_pairs"] for row in rows}) == 1
    save_result(
        "parallel_fit_smoke",
        "\n".join([
            "Parallel fit smoke: the one-pass routes equal the dense "
            "route (2 threads)",
            f"n={len(dataset)}  theta={THETA}",
            "",
            *format_curve(rows, rows[0]),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "parallel_fit_smoke",
        RunManifest.from_tracer(
            "bench_parallel_fit_smoke", tracer,
            config={"n": len(dataset), "theta": THETA, "threads": 2},
        ),
    )


@pytest.mark.slow
def test_parallel_fit_scale(benchmark, save_result, save_manifest):
    """n >= 30k: the thread curve of both kernels, native:1 >= 3x fused:1."""
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    curve = thread_curve()
    variants = [f"{k}:{t}" for k in kernels_available() for t in curve]
    holder = {}
    # rounds of every variant in turn, so host drift hits them alike
    benchmark.pedantic(
        lambda: holder.setdefault("rows", median_rows([
            measure_traced(v, SLOW_N_CLUSTERS, tracer)
            for _ in range(SCALE_REPS)
            for v in variants
        ])),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    n = rows[0]["n"]
    assert n >= 30_000
    by_variant = {row["variant"]: row for row in rows}

    # every variant counted the same linked pairs -- same graph, same links
    assert len({row["linked_pairs"] for row in rows}) == 1

    native_lines = []
    if "native:1" in by_variant:
        # thread-matched single-core comparison: same schedule, no
        # threads, only the kernels differ
        native_speedup = (
            by_variant["fused:1"]["seconds_total"]
            / max(by_variant["native:1"]["seconds_total"], 1e-9)
        )
        # hard floor kept below the steady-state target to absorb
        # machine noise; the measured multiple is recorded either way
        assert native_speedup >= 3.0, (
            f"native fit {native_speedup:.2f}x over fused at n={n}, "
            "need >= 3x"
        )
        backend = by_variant["native:1"]["backend"]
        warmup = by_variant["native:1"]["seconds_warmup"]
        native_lines = [
            f"native:1 vs fused:1: {native_speedup:.2f}x "
            "(floor: >= 3x, steady-state target: >= 5x)",
            f"native backend {backend}, one-time warmup "
            f"{warmup:.2f}s per process (excluded from timings above)",
        ]

    save_result(
        "parallel_fit",
        "\n".join([
            "Parallel fit at n >= 30k: the one-pass kernels per thread count",
            "",
            f"points     {n}  ({SLOW_N_CLUSTERS} clusters x 24, theta {THETA})",
            f"each variant in a fresh process, median of {SCALE_REPS} "
            "(variants in turn); neighbor+link stage only, wall clock",
            "",
            *format_curve(rows, by_variant["fused:1"]),
            "",
            "runs (s):",
            *(
                f"  {row['variant']:<10} "
                + " ".join(f"{s:.2f}" for s in row["all_s"])
                for row in rows
            ),
            "",
            *native_lines,
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "parallel_fit",
        RunManifest.from_tracer(
            "bench_parallel_fit_scale", tracer,
            config={
                "n": n,
                "n_clusters": SLOW_N_CLUSTERS,
                "theta": THETA,
                "thread_curve": list(curve),
                "reps": SCALE_REPS,
            },
        ),
    )


@pytest.mark.slow
def test_fit_past_the_memory_wall(benchmark, save_result):
    """Fit 33,600 points whose dense similarity matrix would be ~9 GB.

    ``dense_similarity_bytes(n)`` exceeds 8 GB, the fit's memory budget
    and ``DENSIFY_LIMIT``, so the planner must leave the dense route and
    nothing downstream may densify -- the run would raise if it tried.
    Peak RSS (``ru_maxrss``, so run this file alone in a fresh process)
    is asserted under half the dense footprint.
    """
    from repro.core.neighbors import DENSIFY_LIMIT, dense_similarity_bytes
    from repro.core.pipeline import plan_fit

    dataset = make_clustered_baskets(WALL_N_CLUSTERS)
    n = len(dataset)
    dense_bytes = dense_similarity_bytes(n)
    plan = plan_fit(dataset, THETA)
    assert dense_bytes > 8 * 1024**3
    assert dense_bytes > plan.memory_budget
    assert n * n > DENSIFY_LIMIT  # any densification would raise
    assert plan.route in ("native", "fused")

    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "result",
            RockPipeline(k=WALL_N_CLUSTERS, theta=THETA, seed=0).fit(
                dataset, label_remaining=False
            ),
        ),
        rounds=1,
        iterations=1,
    )
    result = holder["result"]
    peak = peak_rss_bytes()

    assert result.backends["fit"] == plan.backend
    assert peak < dense_bytes / 2, (
        f"peak RSS {peak / 1024**3:.2f} GB is not memory-bounded vs the "
        f"{dense_bytes / 1024**3:.2f} GB dense matrix"
    )
    assert len(result.labels) == n
    assert impure_clusters(result.labels) == 0
    purity = mean_purity(result.labels, WALL_N_CLUSTERS)
    assert purity > 0.9
    assert abs(result.n_clusters - WALL_N_CLUSTERS) <= WALL_N_CLUSTERS * 0.05

    save_result(
        "fit_memory_wall",
        "\n".join([
            "Fit at n beyond the dense-similarity memory wall (auto route)",
            "",
            f"points                  {n}  ({WALL_N_CLUSTERS} clusters x "
            f"24, vocab 400, theta {THETA})",
            f"dense similarity matrix {dense_bytes / 1024**3:.2f} GB "
            "(never materialised)",
            f"memory budget           {plan.memory_budget / 1024**3:.2f} GB "
            "(host-aware default)",
            f"route                   {result.backends['fit']}",
            f"peak RSS                {peak / 1024**3:.2f} GB",
            f"clusters found          {result.n_clusters}, all pure  "
            f"(mean purity {purity:.3f})",
            "",
            "stage seconds:",
            *(
                f"  {stage:<10} {seconds:8.2f}"
                for stage, seconds in result.timings.items()
            ),
            "",
            machine_summary(),
        ]),
    )


# -- the planner's shared-item gate --------------------------------------------


def gate_baskets(n: int, n_clusters: int, seed: int = 0):
    """``n`` baskets of 10 items, round-robin over disjoint 12-item pools.

    Each item lands in about ``10 n / (12 n_clusters)`` baskets, so
    ``S / (n^2 / 2)`` is about ``8.3 / n_clusters``; every in-cluster
    pair shares at least 8 of 12 items and is a neighbor at theta 0.5.
    """
    from repro.data.transactions import TransactionDataset

    rng = np.random.default_rng(seed)
    return TransactionDataset([
        frozenset((12 * (i % n_clusters) + rng.choice(12, 10, replace=False)).tolist())
        for i in range(n)
    ])


def time_gate_routes(points, tier: str, reps: int, tracer, shape: str) -> dict:
    """Median neighbors+links seconds of the dense and shared-item routes."""
    import statistics

    from repro.core.encoding import transaction_csr
    from repro.core.neighbors import resolve_memory_budget
    from repro.core.pipeline import FitPlan, plan_fit, run_fit_plan
    from repro.obs import Tracer

    n = len(points)
    csr = transaction_csr(points)
    shared = csr.shared_pairs()
    budget = resolve_memory_budget(None)
    shared_route = "native" if tier == "cext" else "fused"
    plans = {
        route: FitPlan(route, route, budget, "gate sweep", shared, csr)
        for route in ("dense", shared_route)
    }
    # one untimed pass per route (imports, caches), which also checks
    # that both routes count the same links
    tables = {
        route: run_fit_plan(plan, points, THETA, tracer=Tracer()).links
        for route, plan in plans.items()
    }
    seconds: dict[str, list[float]] = {route: [] for route in plans}
    for _ in range(reps):
        for route, plan in plans.items():  # alternate: drift hits both
            start = time.perf_counter()
            run_fit_plan(plan, points, THETA, tracer=Tracer())
            seconds[route].append(time.perf_counter() - start)
    dense, other = tables["dense"], tables[shared_route]
    assert np.array_equal(dense.codes, other.codes), tier
    assert np.array_equal(dense.counts, other.counts), tier
    row = {
        "tier": tier,
        "shape": shape,
        "n": n,
        "ratio": shared / (n * n / 2),
        "dense_ms": 1e3 * statistics.median(seconds["dense"]),
        "shared_ms": 1e3 * statistics.median(seconds[shared_route]),
        "planned": plan_fit(points, THETA).route,
        "links": other.producer,
    }
    key = f"bench.gate.{tier}.{shape}.{n}.{row['ratio']:.3f}"
    tracer.registry.set_gauge(f"{key}.dense_ms", row["dense_ms"])
    tracer.registry.set_gauge(f"{key}.shared_ms", row["shared_ms"])
    return row


def gate_sweep(
    n: int, clusters: tuple[int, ...], table5_sizes: tuple[int, ...],
    reps: int, tracer,
) -> list[dict]:
    """Every shape on both tiers (the numpy one under ``REPRO_NATIVE=0``):
    the planted series at ``n``, then the Table 5 shapes (one vocabulary,
    and the two-vocabulary stream window) at each of ``table5_sizes``."""
    from contextlib import nullcontext

    from benchmarks.machine import native_off

    shapes = [("planted", lambda c=c: gate_baskets(n, c)) for c in clusters]
    shapes += [
        (f"table5x{v}", lambda size=size, v=v: table5_baskets(size, v))
        for size in table5_sizes
        for v in (1, 2)
    ]
    tiers = [("cext", nullcontext)] if kernels_available()[-1] == "native" else []
    tiers.append(("numpy", native_off))
    rows = []
    for tier, context in tiers:
        with tracer.span(f"gate:{tier}", n=n, reps=reps), context():
            rows.extend(
                time_gate_routes(build(), tier, reps, tracer, shape)
                for shape, build in shapes
            )
    return rows


def break_even(rows: list[dict]) -> float | None:
    """The ``S / (n^2 / 2)`` where the dense route starts winning (log-interpolated)."""
    rows = sorted(rows, key=lambda row: row["ratio"])
    gains = [np.log(row["dense_ms"] / row["shared_ms"]) for row in rows]
    for low, high, g_low, g_high in zip(rows, rows[1:], gains, gains[1:]):
        if g_low > 0 >= g_high:
            w = g_low / (g_low - g_high)
            return float(np.exp(
                (1 - w) * np.log(low["ratio"]) + w * np.log(high["ratio"])
            ))
    return None


def routed_ms(rows: list[dict], gate: float) -> float:
    """Total time when every shape runs the route ``gate`` picks for it."""
    return sum(
        row["shared_ms"] if row["ratio"] < gate else row["dense_ms"] for row in rows
    )


def best_gates(rows: list[dict]) -> tuple[float, float]:
    """The range of gates within 1% of the least total time over ``rows``."""
    ratios = sorted({row["ratio"] for row in rows})
    candidates = [ratios[0] / 2, *np.sqrt(np.multiply(ratios[:-1], ratios[1:])),
                  ratios[-1] * 2]
    totals = [routed_ms(rows, gate) for gate in candidates]
    good = [g for g, t in zip(candidates, totals) if t <= 1.01 * min(totals)]
    return float(min(good)), float(max(good))


def format_gate(rows: list[dict], gates: dict[str, float]) -> list[str]:
    lines = [
        f"{'tier':<6} {'shape':<9} {'n':>5} {'S/(n^2/2)':>10} {'dense_ms':>9} "
        f"{'shared_ms':>10} {'dense/shared':>13} {'planned':>8}  links",
    ]
    for row in rows:
        lines.append(
            f"{row['tier']:<6} {row['shape']:<9} {row['n']:>5} {row['ratio']:>10.2f} "
            f"{row['dense_ms']:>9.1f} {row['shared_ms']:>10.1f} "
            f"{row['dense_ms'] / row['shared_ms']:>12.2f}x "
            f"{row['planned']:>8}  {row['links']}"
        )
    lines.append("")
    for tier in sorted({row["tier"] for row in rows}):
        mine = [row for row in rows if row["tier"] == tier]
        even = break_even([row for row in mine if row["shape"] == "planted"])
        best = sum(min(row["dense_ms"], row["shared_ms"]) for row in mine)
        low, high = best_gates(mine)
        lines.append(
            f"{tier}: planted break-even S/(n^2/2) "
            f"{'none in range' if even is None else f'{even:.2f}'}; gates "
            f"{low:.2f} .. {high:.2f} keep the summed time over every shape "
            "within 1% of its least; "
            f"routing by the gate ({gates[tier]:g}) costs "
            f"{routed_ms(mine, gates[tier]) / best:.3f}x the per-shape best"
        )
    return lines


def test_neighbor_gate_crossover_smoke(benchmark, save_result, save_manifest):
    """Tiny sweep: both routes agree, and the planner routes each end."""
    from repro.core.pipeline import SHARED_PAIR_RATIO
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows", gate_sweep(
                SMOKE_GATE_N, SMOKE_GATE_CLUSTERS, (SMOKE_GATE_N,), 1, tracer
            )
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    for row in rows:
        below = row["ratio"] < SHARED_PAIR_RATIO[row["tier"]]
        shared_route = "native" if row["tier"] == "cext" else "fused"
        assert row["planned"] == (shared_route if below else "dense"), row
    save_result(
        "neighbor_gate_smoke",
        "\n".join([
            f"Neighbor gate smoke: n={SMOKE_GATE_N}, theta={THETA}, "
            f"gates S < {SHARED_PAIR_RATIO} n^2/2",
            "",
            *format_gate(rows, SHARED_PAIR_RATIO),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "neighbor_gate_smoke",
        RunManifest.from_tracer(
            "bench_neighbor_gate_smoke", tracer,
            config={
                "n": SMOKE_GATE_N, "clusters": list(SMOKE_GATE_CLUSTERS),
                "gate": SHARED_PAIR_RATIO,
            },
        ),
    )


def test_neighbor_gate_crossover(benchmark, save_result, save_manifest):
    """The sweep behind ``SHARED_PAIR_RATIO``: each end wins on both tiers."""
    from repro.core.pipeline import SHARED_PAIR_RATIO
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows", gate_sweep(
                GATE_N, GATE_CLUSTERS, GATE_TABLE5_SIZES, GATE_REPS, tracer
            )
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    for tier in {row["tier"] for row in rows}:
        mine = sorted(
            (row for row in rows if row["tier"] == tier and row["shape"] == "planted"),
            key=lambda row: row["ratio"],
        )
        assert mine[0]["ratio"] < 0.15 and mine[-1]["ratio"] > 7
        assert mine[0]["shared_ms"] < mine[0]["dense_ms"], tier
        assert mine[-1]["dense_ms"] < mine[-1]["shared_ms"], tier
    save_result(
        "neighbor_gate",
        "\n".join([
            "Neighbor gate crossover: dense row blocks vs shared-item scoring "
            "(native, or fused under REPRO_NATIVE=0)",
            f"n={GATE_N} planted baskets and Table 5 generator baskets at "
            f"n={', '.join(map(str, GATE_TABLE5_SIZES))} (x2: two vocabularies, "
            f"a stream window across a switch), theta={THETA}; neighbors+links "
            f"(run_fit_plan), median of {GATE_REPS}, routes alternating",
            f"planner gates: shared-item scoring while S < {SHARED_PAIR_RATIO} "
            "n^2/2",
            "",
            *format_gate(rows, SHARED_PAIR_RATIO),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "neighbor_gate",
        RunManifest.from_tracer(
            "bench_neighbor_gate", tracer,
            config={
                "n": GATE_N,
                "clusters": list(GATE_CLUSTERS),
                "table5_sizes": list(GATE_TABLE5_SIZES),
                "reps": GATE_REPS,
                "theta": THETA,
                "gate": SHARED_PAIR_RATIO,
            },
        ),
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--n-clusters", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(run_variant(args.variant, args.n_clusters)))
