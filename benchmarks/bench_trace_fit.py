"""Trace smoke: a small traced fit leaves one complete RunManifest.

CI-fast proof of the observability wiring end to end: a fit past its
memory budget (the native or fused route) under a
:class:`~repro.obs.trace.Tracer` must produce a manifest that (a)
round-trips through JSON, (b) contains a span for every fit phase, and
(c) carries the kernel counters the block threads recorded and the
thread count the fit derived.  Runs under ``make bench-smoke``.
"""

import json

from benchmarks.conftest import result_path
from benchmarks.machine import machine_summary
from repro.core.pipeline import RockPipeline
from repro.obs import RunManifest, Tracer

THETA = 0.5
N_CLUSTERS = 30
FIT_PHASES = ("sample", "neighbors", "links", "cluster", "label")


def test_trace_fit_smoke(benchmark, save_result, save_manifest):
    from benchmarks.baskets import make_clustered_baskets

    dataset = make_clustered_baskets(N_CLUSTERS)
    tracer = Tracer()
    pipeline = RockPipeline(
        k=N_CLUSTERS, theta=THETA, sample_size=None, seed=0,
        memory_budget=1,
    )
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "result", pipeline.fit(dataset, label_remaining=False, tracer=tracer)
        ),
        rounds=1,
        iterations=1,
    )
    result = holder["result"]

    manifest = RunManifest.from_tracer(
        "bench_trace_fit_smoke", tracer,
        config={"n": len(dataset), "theta": THETA, "memory_budget": 1},
    )
    save_manifest("trace_fit_smoke", manifest)

    # the manifest parses back and its span tree covers every phase
    reloaded = RunManifest.load(result_path("trace_fit_smoke", ".manifest.json"))
    assert reloaded.to_dict() == manifest.to_dict()
    names = reloaded.span_names()
    assert "fit" in names
    for phase in FIT_PHASES:
        assert phase in names, f"missing span {phase!r}"

    # every block thread's kernel counters are in the registry
    counters = reloaded.metrics["counters"]
    kernel = "native" if result.backends["fit"].startswith("native") else "fused"
    assert counters[f"fit.{kernel}.rows"] == len(dataset)
    assert counters[f"fit.{kernel}.blocks"] >= 1
    threads = reloaded.metrics["gauges"]["fit.threads"]
    assert threads == result.threads == reloaded.find_span("fit")["attrs"]["threads"]

    fit_span = reloaded.find_span("fit")
    phase_lines = [
        f"{child['name']:<10} {child['wall_seconds']:>8.3f}s"
        for child in fit_span["children"]
    ]
    save_result(
        "trace_fit_smoke",
        "\n".join([
            f"Trace smoke: {result.backends['fit']} fit on {threads} "
            "thread(s) under a Tracer",
            f"n={len(dataset)}  theta={THETA}  "
            f"clusters={result.n_clusters}",
            "",
            "per-phase wall clock (from the span tree):",
            *phase_lines,
            "",
            "kernel counters: "
            + json.dumps(
                {k: v for k, v in sorted(counters.items())
                 if k.startswith((f"fit.{kernel}", "fit.links"))},
            ),
            "",
            machine_summary(),
        ]),
    )
