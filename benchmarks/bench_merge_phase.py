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
(the default engine: every component's inner loop *and* the k-way
replay in one ``merge_components`` kernel call) joins both benches:
identity-checked against the reference, timed after an explicit backend
warmup so the one-time compile never pollutes the steady-state
numbers.  Only the cross-pair aggregation, the component partition and
the ``MergeStep`` list stay in Python, so the curve's acceptance
multiple (native >= 3x the Python engine at the largest ``n``) is taken
on the engine totals.

Both benches also carry a **fit-full-shaped row**: 210 planted
clusters of 8 baskets (``perfbench``'s fit-full input shape, one small
component per planted cluster), where the cluster phase is dominated by
per-component glue rather than merging.  It times the cluster phase on the packed
native call against the Python engine (median of repeats, cyclic GC
paused), identity-checked against the reference loop.

Links are computed once per size and shared by all engines, so only
the merge loop is timed.
"""

import gc
import statistics
import time

import pytest

from benchmarks.baskets import PER_CLUSTER, make_clustered_baskets
from benchmarks.machine import machine_summary, native_off
from repro.core.goodness import default_f
from repro.core.links import sparse_link_table
from repro.core.merge import fast_cluster_with_links
from repro.core.neighbors import compute_neighbor_graph
from repro.core.rock import heap_cluster_with_links
from repro.obs import MetricsRegistry, RunManifest, Tracer

THETA = 0.5
SMOKE_N_CLUSTERS = 12
CURVE_N_CLUSTERS = (105, 420, 1260)  # n = 2520, 10080, 30240
SPEEDUP_FLOOR = 3.0
FIT_FULL_CLUSTERS = 210
FIT_FULL_PER_CLUSTER = 8
SMOKE_FIT_FULL_REPEATS = 5
CURVE_FIT_FULL_REPEATS = 30


def build_links(n_clusters: int, per_cluster: int = PER_CLUSTER):
    dataset = make_clustered_baskets(n_clusters, per_cluster=per_cluster)
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


def time_fit_full_shape(repeats: int, tracer=None):
    """The cluster phase on fit-full's shape, per engine.

    Builds 210 planted clusters of 8 baskets, then times
    :func:`fast_cluster_with_links` on the Python engine
    (``REPRO_NATIVE=0``) and, when a backend probes, on the packed
    native call: the median of ``repeats`` runs each, cyclic GC paused.
    Every engine's result is checked against the reference loop, and
    both engines must count the same ``fit.cluster.*`` work.  Returns
    ``(n, components, {engine: seconds})``.
    """
    import repro.native as native_mod

    n, links = build_links(FIT_FULL_CLUSTERS, FIT_FULL_PER_CLUSTER)
    f_theta = default_f(THETA)
    k = FIT_FULL_CLUSTERS
    reference = heap_cluster_with_links(links, k=k, f_theta=f_theta)

    def run_engine():
        registry = MetricsRegistry()
        result = fast_cluster_with_links(
            links, k=k, f_theta=f_theta, registry=registry
        )
        assert result.clusters == reference.clusters
        assert result.merges == reference.merges
        assert result.stopped_early == reference.stopped_early
        seconds = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                fast_cluster_with_links(links, k=k, f_theta=f_theta)
                seconds.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return statistics.median(seconds), registry.snapshot()["counters"]

    with native_off():
        python_s, python_counts = run_engine()
    seconds = {"python": python_s}
    if native_mod.available_backend() is not None:
        seconds["native"], native_counts = run_engine()
        assert native_counts == python_counts
    if tracer is not None:
        for name, value in seconds.items():
            tracer.registry.set_gauge(
                f"bench.merge.fit_full_{name}_seconds", value
            )
    return n, int(python_counts["fit.cluster.components"]), seconds


def format_fit_full(n, components, seconds, repeats) -> list[str]:
    python_s = seconds["python"]
    lines = [
        f"fit-full shape: n={n} ({FIT_FULL_CLUSTERS} planted clusters of "
        f"{FIT_FULL_PER_CLUSTER}), k={FIT_FULL_CLUSTERS}, {components} "
        f"components; median of {repeats}, identical to the heap reference",
        f"{'engine':<10} {'cluster_ms':>10} {'speedup':>8}",
    ]
    for name, value in seconds.items():
        lines.append(
            f"{name:<10} {value * 1e3:>10.2f} "
            f"{python_s / max(value, 1e-9):>7.2f}x"
        )
    return lines


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
    fit_full = time_fit_full_shape(SMOKE_FIT_FULL_REPEATS, tracer=tracer)

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
            *format_fit_full(*fit_full, SMOKE_FIT_FULL_REPEATS),
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
        # the whole cluster phase runs in one kernel call: only the
        # cross-pair aggregation, the partition and the MergeStep list
        # stay in Python, so the multiple is taken on the engine totals
        assert engine_speedup >= SPEEDUP_FLOOR, (
            f"native engine {engine_speedup:.2f}x over Python at "
            f"n={n}, need >= {SPEEDUP_FLOOR}x"
        )
        native_note = [
            "",
            f"native engine vs fast at n={n}: {engine_speedup:.2f}x "
            f"(floor: >= {SPEEDUP_FLOOR}x; every component's loop and "
            "the k-way replay in one kernel call)",
            "backend warmup excluded (probed before timing)",
        ]
    fit_full = time_fit_full_shape(CURVE_FIT_FULL_REPEATS, tracer=tracer)

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
    lines += [
        *native_note,
        "",
        *format_fit_full(*fit_full, CURVE_FIT_FULL_REPEATS),
        "",
        machine_summary(),
    ]
    save_result("merge_phase", "\n".join(lines))
    manifest = RunManifest.from_tracer(
        "bench_merge_phase", tracer,
        config={"theta": THETA, "sizes": [size for size, _ in curve],
                "speedup_floor": SPEEDUP_FLOOR},
    )
    save_manifest("merge_phase", manifest)
