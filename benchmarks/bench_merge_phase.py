"""Merge-phase engines: the Figure 3 reference loop vs the component engine.

The component merge engine (:mod:`repro.core.merge`) decomposes the cluster
link graph into connected components, agglomerates each to exhaustion
with lazy local heaps and a memoized power table, and k-way replays the
per-component streams -- reproducing the reference loop's result byte
for byte.  Two benches over the well-separated clustered baskets of
:mod:`benchmarks.baskets` (24-point clusters, so the merge
phase is many small independent components -- the regime the component
partition targets):

* a **smoke** run at tiny ``n`` proving the reference loop and the
  component engine's Python inner loop (``fast``, run with
  ``REPRO_NATIVE=0``) produce the identical
  :class:`~repro.core.rock.RockResult` (clusters *and* full merge
  history) and leaving a RunManifest; this is what ``make
  bench-smoke`` runs in CI;
* a **full-scale** curve (marked ``slow``) timing the cluster phase
  alone at ``n`` up to 30,240, asserting the fast engine's single-core
  algorithmic win (>= 3x on the cluster phase at the largest ``n``)
  with in-bench identity checks at every size.

When a :mod:`repro.native` backend probes, a ``native`` engine row
(the default engine: the component inner loop on the native kernel)
joins both benches: identity-checked against the reference, timed
after an explicit backend warmup so JIT/compile cost never pollutes
the steady-state numbers.  The curve additionally times the component
inner loop *in isolation* (Python ``component_merge_stream`` vs the
native kernel) at the largest ``n``: the surrounding stages -- cross-
pair aggregation, component partition, k-way replay -- stay in Python
on both engines, so the engine totals understate the kernel by
Amdahl's law and the acceptance multiple is taken on the replaced
stage itself.

Links are computed once per size and shared by all engines, so only
the merge loop is timed.
"""

import time

import numpy as np
import pytest

from benchmarks.machine import machine_summary, native_off
from repro.core.goodness import default_f
from repro.core.links import sparse_link_table
from repro.core.merge import fast_cluster_with_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.rock import heap_cluster_with_links
from repro.obs import RunManifest, Tracer

THETA = 0.5
SMOKE_N_CLUSTERS = 12
CURVE_N_CLUSTERS = (105, 420, 1260)  # n = 2520, 10080, 30240
SPEEDUP_FLOOR = 3.0


def build_links(n_clusters: int):
    from benchmarks.baskets import make_clustered_baskets

    dataset = make_clustered_baskets(n_clusters)
    graph = compute_neighbor_graph(dataset, THETA)
    return len(dataset), sparse_link_table(graph)


def run_engines(links, k: int, tracer=None):
    """Time the merge phase per engine over one shared link table."""
    f_theta = default_f(THETA)
    rows = {}

    def timed(name, fn):
        if tracer is None:
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        else:
            with tracer.span(name, k=k):
                start = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - start
            tracer.registry.set_gauge(f"bench.merge.{name}_seconds", seconds)
        rows[name] = (seconds, result)
        return result

    registry = None if tracer is None else tracer.registry
    timed("heap", lambda: heap_cluster_with_links(
        links, k=k, f_theta=f_theta
    ))
    with native_off():
        timed("fast", lambda: fast_cluster_with_links(
            links, k=k, f_theta=f_theta, registry=registry
        ))
    import repro.native as native_mod

    # warm the backend outside the timed region: the probe (C compile +
    # dlopen) is a one-time per-process cost, not part of
    # the steady-state merge loop
    warm_start = time.perf_counter()
    backend = native_mod.available_backend()
    if backend is not None:
        if tracer is not None:
            tracer.registry.set_gauge(
                "bench.merge.native_warmup_seconds",
                time.perf_counter() - warm_start,
            )
        timed("native", lambda: fast_cluster_with_links(
            links, k=k, f_theta=f_theta, registry=registry
        ))
    return rows


def time_stream_stage(links, repeats=3):
    """Time just the component inner loop: Python vs native kernel.

    Reproduces the component engine's singleton preamble, then runs
    the one stage the native kernel replaces -- the per-component
    agglomeration -- on both implementations, identity-checking every
    stream.  Takes the best of ``repeats`` per side with the cyclic GC
    paused: by the time this runs the curve holds every engine's full
    merge history live, and a gen-2 collection landing inside the
    short native window can halve a single-sample ratio.  Returns
    ``(python_s, native_s)`` or ``None`` when no backend probes.
    """
    import gc

    from repro.core.goodness import goodness, merge_kernel_for
    from repro.core.merge import (
        _cross_pair_arrays,
        component_merge_stream,
        partition_components,
    )
    from repro.native import get_kernels
    from repro.native.merge import native_component_streams

    backend = get_kernels()
    if backend is None:
        return None
    n = links.n
    cluster_list = [[i] for i in range(n)]
    sizes = np.ones(n, dtype=np.int64)
    lo, hi, counts = _cross_pair_arrays(links, cluster_list, True)
    problems = partition_components(n, sizes, lo, hi, counts)
    kernel = merge_kernel_for(goodness, default_f(THETA), n_max=n)

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        python_s = native_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            py_streams = [component_merge_stream(p, kernel) for p in problems]
            python_s = min(python_s, time.perf_counter() - start)

            start = time.perf_counter()
            nat_streams = native_component_streams(problems, kernel, backend)
            native_s = min(native_s, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()

    assert len(py_streams) == len(nat_streams)
    for py, nat in zip(py_streams, nat_streams):
        assert np.array_equal(py.left, nat.left)
        assert np.array_equal(py.right, nat.right)
        assert py.goodness.tobytes() == nat.goodness.tobytes()
        assert np.array_equal(py.sizes, nat.sizes)
        assert py.heap_ops == nat.heap_ops
    return python_s, native_s


def assert_engines_identical(rows) -> None:
    _, reference = rows["heap"]
    for name in rows:
        if name == "heap":
            continue
        _, result = rows[name]
        assert result.clusters == reference.clusters, name
        assert result.merges == reference.merges, name
        assert result.stopped_early == reference.stopped_early, name


def format_rows(n: int, rows) -> list[str]:
    heap_s = rows["heap"][0]
    lines = [f"{'engine':<10} {'cluster_s':>10} {'speedup':>8}"]
    for name, (seconds, _) in rows.items():
        speedup = heap_s / max(seconds, 1e-9)
        lines.append(f"{name:<10} {seconds:>10.3f} {speedup:>7.2f}x")
    return lines


def test_merge_phase_smoke(benchmark, save_result, save_manifest):
    n, links = build_links(SMOKE_N_CLUSTERS)
    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows", run_engines(links, k=SMOKE_N_CLUSTERS, tracer=tracer)
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    assert_engines_identical(rows)

    # the fast engine's obs counters flowed into the shared registry
    counters = tracer.registry.snapshot()["counters"]
    assert counters["fit.cluster.components"] >= SMOKE_N_CLUSTERS
    assert counters["fit.cluster.heap_ops"] > 0

    manifest = RunManifest.from_tracer(
        "bench_merge_phase_smoke", tracer,
        config={"n": n, "theta": THETA, "k": SMOKE_N_CLUSTERS,
                "engines": list(rows)},
    )
    save_manifest("merge_phase_smoke", manifest)
    save_result(
        "merge_phase_smoke",
        "\n".join([
            "Merge-phase smoke: heap reference vs component engine",
            f"n={n}  theta={THETA}  k={SMOKE_N_CLUSTERS}  "
            "identical clusters+merges: yes",
            "",
            *format_rows(n, rows),
            "",
            machine_summary(),
        ]),
    )


@pytest.mark.slow
def test_merge_phase_curve(benchmark, save_result, save_manifest):
    tracer = Tracer()
    curve = []
    for n_clusters in CURVE_N_CLUSTERS[:-1]:
        n, links = build_links(n_clusters)
        rows = run_engines(links, k=n_clusters, tracer=tracer)
        assert_engines_identical(rows)
        curve.append((n, rows))

    holder = {}

    def largest():
        n, links = build_links(CURVE_N_CLUSTERS[-1])
        rows = run_engines(links, k=CURVE_N_CLUSTERS[-1], tracer=tracer)
        holder["cell"] = (n, rows)
        holder["links"] = links

    benchmark.pedantic(largest, rounds=1, iterations=1)
    n, rows = holder["cell"]
    assert_engines_identical(rows)
    curve.append((n, rows))

    # the acceptance bar: single-core algorithmic win at the largest n
    heap_s, _ = rows["heap"]
    fast_s, _ = rows["fast"]
    assert heap_s >= SPEEDUP_FLOOR * fast_s, (
        f"fast engine {heap_s / fast_s:.2f}x at n={n}, "
        f"need >= {SPEEDUP_FLOOR}x"
    )
    native_note = []
    if "native" in rows:
        native_s, _ = rows["native"]
        engine_speedup = fast_s / max(native_s, 1e-9)
        # the acceptance multiple is taken on the stage the kernel
        # replaces (the component inner loop), timed in isolation:
        # cross-pair aggregation, partition, and replay stay in Python
        # on both engines, so the end-to-end ratio is Amdahl-capped
        # well below the kernel's own multiple
        stage = time_stream_stage(holder["links"])
        assert stage is not None
        python_s, native_stage_s = stage
        stage_speedup = python_s / max(native_stage_s, 1e-9)
        tracer.registry.set_gauge(
            "bench.merge.stream_stage_python_seconds", python_s
        )
        tracer.registry.set_gauge(
            "bench.merge.stream_stage_native_seconds", native_stage_s
        )
        # floor below the steady-state target to absorb machine noise
        assert stage_speedup >= 3.0, (
            f"native inner loop {stage_speedup:.2f}x over Python at "
            f"n={n}, need >= 3x"
        )
        native_note = [
            "",
            f"component inner loop at n={n}: python {python_s:.3f}s, "
            f"native {native_stage_s:.3f}s -> {stage_speedup:.2f}x "
            "(floor: >= 3x, steady-state target: >= 5x)",
            f"native engine end-to-end vs fast: {engine_speedup:.2f}x "
            "(Amdahl-capped: cross-pair aggregation, partition and "
            "replay stay in Python on both engines)",
            "backend warmup excluded (probed before timing)",
        ]

    has_native = any("native" in cell for _, cell in curve)
    header = (
        f"{'n':>7} {'heap_s':>8} {'fast_s':>8} "
        + (f"{'native_s':>9} " if has_native else "")
        + f"{'speedup':>8}"
    )
    lines = [
        "Merge-phase curve: cluster-phase seconds, shared link tables",
        f"theta={THETA}, k=n/24 (one per planted cluster); all engines "
        "byte-identical",
        "",
        header,
    ]
    for size, cell in curve:
        heap_seconds = cell["heap"][0]
        fast_seconds = cell["fast"][0]
        native_col = (
            f"{cell['native'][0]:>9.3f} " if "native" in cell else ""
        )
        lines.append(
            f"{size:>7} {heap_seconds:>8.3f} {fast_seconds:>8.3f} "
            + native_col
            + f"{heap_seconds / max(fast_seconds, 1e-9):>7.2f}x"
        )
    lines += [*native_note, "", machine_summary()]
    save_result("merge_phase", "\n".join(lines))
    manifest = RunManifest.from_tracer(
        "bench_merge_phase", tracer,
        config={"theta": THETA, "sizes": [size for size, _ in curve],
                "speedup_floor": SPEEDUP_FLOOR},
    )
    save_manifest("merge_phase", manifest)
