"""Sharded out-of-core fit: peak RSS + wall vs the in-memory fused path.

Two questions, answered against the same on-disk transactions files:

* **overhead** -- at n = 30,240 (both paths feasible) what do the
  coordinator/worker runtime, the store encode, and the spill traffic
  cost in wall-clock, and what does the memory-mapped store save in
  peak RSS?
* **reach** -- at n = 120,960 under a hard address-space budget
  (``RLIMIT_AS``), the in-memory fused path must materialise the
  dense indicator matrix and the Python transaction objects and dies
  with ``MemoryError``; the sharded fit streams the same file through
  the int32 CSR store and completes.  That is the point of the
  subsystem: same clusters, bounded memory.

Each variant runs in a **fresh subprocess** (this file doubles as the
runner: ``python bench_shard_fit.py --variant sharded:1 --data f.txt
--n-clusters 1260``) so ``ru_maxrss`` is a true per-variant high-water
mark; shard workers are folded in via ``RUSAGE_CHILDREN``.  Budgeted
runs set ``RLIMIT_AS`` *inside* the fresh process, so the cap binds
the whole fit including imports.

The smoke test also proves label-identity of the sharded path end to
end; the slow test runs the 30k comparison and the 120k budget
demonstration and asserts the acceptance bar: sharded completes under
a budget where fused is infeasible.
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

from benchmarks.machine import machine_summary  # noqa: E402

THETA = 0.5
SMOKE_N_CLUSTERS = 30
SLOW_N_CLUSTERS = 1260  # x24 points/cluster = 30,240 points
BIG_N_CLUSTERS = 5040  # x24 points/cluster = 120,960 points
PER_CLUSTER = 24
POOL_SIZE = 14
TXN_SIZE = 10
# the comparison budget both variants run with (block sizing input);
# the *hard* cap for the reach demonstration is BUDGET_MB of RLIMIT_AS
MEMORY_BUDGET = 512 << 20
BUDGET_MB = 600


def peak_rss_bytes() -> int:
    """High-water RSS of this process plus its (pool) children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) * 1024


def make_basket_file(
    path, n_clusters: int, vocab_size: int = 400, seed: int = 0
) -> int:
    """Stream well-separated clustered baskets to ``path``.

    Same generative shape as ``benchmarks.baskets.make_clustered_baskets``
    (24 size-10 transactions per cluster from a 14-item pool) but
    chunk-written, so the big instances never exist in memory here.
    Cross-cluster pools share ~``POOL_SIZE**2 / vocab_size`` items, far
    below theta=0.5, so ground truth stays clean at every scale.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array([f"i{j:04d}" for j in range(vocab_size)])
    n = 0
    with open(path, "w", encoding="utf-8") as handle:
        buffer = []
        for _ in range(n_clusters):
            pool = rng.choice(vocab, size=POOL_SIZE, replace=False)
            for _ in range(PER_CLUSTER):
                row = rng.choice(pool, size=TXN_SIZE, replace=False)
                buffer.append(" ".join(sorted(row.tolist())))
                n += 1
            if len(buffer) >= 8192:
                handle.write("\n".join(buffer) + "\n")
                buffer.clear()
        if buffer:
            handle.write("\n".join(buffer) + "\n")
    return n


def run_variant(
    variant: str, data: str, n_clusters: int, budget_mb: int | None = None
) -> dict:
    """Fit one variant from the on-disk file; meant for a fresh process."""
    if budget_mb is not None:
        cap = budget_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    name, _, arg = variant.partition(":")
    workers = int(arg) if arg else 1
    row = {
        "variant": variant,
        "n": n_clusters * PER_CLUSTER,
        "budget_mb": budget_mb,
        "infeasible": False,
    }
    try:
        if name == "fused":
            from repro.core import rock
            from repro.data.io import read_transactions

            # past the budget with the C tier off, the planner's
            # in-memory route is the fused kernel (a fresh process, so
            # the switch touches nothing else)
            os.environ["REPRO_NATIVE"] = "0"
            start = time.perf_counter()
            dataset = read_transactions(data)
            load_s = time.perf_counter() - start
            start = time.perf_counter()
            result = rock(
                dataset, k=n_clusters, theta=THETA, memory_budget=MEMORY_BUDGET,
            )
            fit_s = time.perf_counter() - start
            clusters = len(result.clusters)
        elif name == "sharded":
            import tempfile

            from repro.shard import TransactionStore, shard_fit

            scratch = tempfile.mkdtemp(prefix="bench-shard-")
            start = time.perf_counter()
            store = TransactionStore.from_transactions_file(
                data, os.path.join(scratch, "store")
            )
            load_s = time.perf_counter() - start
            start = time.perf_counter()
            fit = shard_fit(
                store=store, k=n_clusters, theta=THETA,
                f_theta=(1 - THETA) / (1 + THETA), workers=workers,
                spill_dir=os.path.join(scratch, "spill"),
                memory_budget=MEMORY_BUDGET,
            )
            fit_s = time.perf_counter() - start
            clusters = len(fit.result.clusters)
            row["timings"] = {k: round(v, 3) for k, v in fit.timings.items()}
        else:
            raise SystemExit(f"unknown variant {variant!r}")
    except MemoryError:
        row["infeasible"] = True
        row["peak_rss"] = peak_rss_bytes()
        return row
    row.update(
        seconds_load=load_s,
        seconds_fit=fit_s,
        seconds_total=load_s + fit_s,
        clusters=clusters,
        peak_rss=peak_rss_bytes(),
    )
    return row


def measure_fresh(
    variant: str, data: str, n_clusters: int, budget_mb: int | None = None
) -> dict:
    """Run one variant in a fresh interpreter so RSS peaks don't bleed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "benchmarks.bench_shard_fit",
        "--variant", variant, "--data", str(data),
        "--n-clusters", str(n_clusters),
    ]
    if budget_mb is not None:
        argv += ["--budget-mb", str(budget_mb)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_traced(
    variant: str, data: str, n_clusters: int, tracer=None, budget_mb=None
) -> dict:
    """``measure_fresh`` under a span, with the row mirrored as gauges."""
    if tracer is None:
        return measure_fresh(variant, data, n_clusters, budget_mb)
    with tracer.span(variant, n_clusters=n_clusters, budget_mb=budget_mb):
        row = measure_fresh(variant, data, n_clusters, budget_mb)
    prefix = f"bench.{variant}" + ("" if budget_mb is None else f"@{budget_mb}mb")
    tracer.registry.set_gauge(f"{prefix}.peak_rss", row["peak_rss"])
    if not row["infeasible"]:
        tracer.registry.set_gauge(f"{prefix}.seconds_total", row["seconds_total"])
    return row


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'variant':<12} {'n':>8} {'load_s':>7} {'fit_s':>7} "
        f"{'total_s':>8} {'clusters':>9} {'peak_rss_mb':>12}",
    ]
    for row in rows:
        if row["infeasible"]:
            lines.append(
                f"{row['variant']:<12} {row['n']:>8} "
                f"{'-- infeasible under ' + str(row['budget_mb']) + ' MiB (MemoryError) --':>48}"
            )
            continue
        lines.append(
            f"{row['variant']:<12} {row['n']:>8} {row['seconds_load']:>7.2f} "
            f"{row['seconds_fit']:>7.2f} {row['seconds_total']:>8.2f} "
            f"{row['clusters']:>9} {row['peak_rss'] / 1024**2:>12.1f}"
        )
    return lines


def test_shard_fit_smoke(benchmark, tmp_path, save_result, save_manifest):
    """Small-n: sharded labels identical to the in-memory route; record the curve."""
    from repro.core import rock
    from repro.data.io import read_transactions
    from repro.obs import RunManifest, Tracer
    from repro.shard import shard_fit

    data = tmp_path / "baskets.txt"
    n = make_basket_file(data, SMOKE_N_CLUSTERS)
    dataset = read_transactions(data)
    base = rock(dataset, k=SMOKE_N_CLUSTERS, theta=THETA, memory_budget=1)
    sharded = shard_fit(
        dataset, k=SMOKE_N_CLUSTERS, theta=THETA,
        f_theta=(1 - THETA) / (1 + THETA), workers=2, block_rows=64,
    ).result
    assert sharded.clusters == base.clusters
    assert [
        (m.left, m.right, float(m.goodness).hex()) for m in sharded.merges
    ] == [(m.left, m.right, float(m.goodness).hex()) for m in base.merges]

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows",
            [
                measure_traced(v, data, SMOKE_N_CLUSTERS, tracer)
                for v in ("fused", "sharded:1", "sharded:2")
            ],
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    assert all(row["clusters"] == SMOKE_N_CLUSTERS for row in rows)
    save_result(
        "shard_fit_smoke",
        "\n".join([
            "Sharded fit smoke: byte-identical merges, out-of-core runtime",
            f"n={n}  theta={THETA}",
            "",
            *format_rows(rows),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "shard_fit_smoke",
        RunManifest.from_tracer(
            "bench_shard_fit_smoke", tracer,
            config={"n": n, "theta": THETA},
        ),
    )


@pytest.mark.slow
def test_shard_fit_scale(benchmark, tmp_path, save_result, save_manifest):
    """The acceptance bar for the sharded fit.

    At n = 30,240 both paths complete: record the overhead and the RSS
    saving.  At n = 120,960 under a 600 MiB ``RLIMIT_AS`` the fused
    path must be infeasible (MemoryError) while sharded completes with
    the full cluster recovery -- same budget, same file.
    """
    from repro.obs import RunManifest, Tracer

    mid = tmp_path / "mid.txt"
    big = tmp_path / "big.txt"
    n_mid = make_basket_file(mid, SLOW_N_CLUSTERS, vocab_size=400)
    # a wider vocabulary at 120k keeps co-occurrence sparse (fast
    # store scoring) and is exactly what breaks the fused path's dense
    # indicator matrix under the cap
    n_big = make_basket_file(big, BIG_N_CLUSTERS, vocab_size=2000)
    assert n_big >= 120_000

    tracer = Tracer()
    holder = {}

    def _suite():
        comparison = [
            measure_traced(v, mid, SLOW_N_CLUSTERS, tracer)
            for v in ("fused", "sharded:1", "sharded:2")
        ]
        reach = [
            measure_traced(
                v, big, BIG_N_CLUSTERS, tracer, budget_mb=BUDGET_MB
            )
            for v in ("fused", "sharded:1")
        ]
        return comparison, reach

    benchmark.pedantic(
        lambda: holder.setdefault("suite", _suite()), rounds=1, iterations=1
    )
    comparison, reach = holder["suite"]

    # -- 30k: same clusters, bounded memory --------------------------------
    assert all(row["clusters"] == SLOW_N_CLUSTERS for row in comparison)
    fused_mid, sharded_mid = comparison[0], comparison[1]
    assert sharded_mid["peak_rss"] <= fused_mid["peak_rss"], (
        "the memory-mapped store should beat the in-memory fused path's RSS"
    )

    # -- 120k under the cap: fused infeasible, sharded completes -----------
    fused_big, sharded_big = reach
    assert fused_big["infeasible"], (
        "expected the fused path to exhaust the address-space budget"
    )
    assert not sharded_big["infeasible"]
    assert sharded_big["clusters"] == BIG_N_CLUSTERS
    assert sharded_big["peak_rss"] <= BUDGET_MB << 20

    save_result(
        "shard_fit",
        "\n".join([
            "Sharded out-of-core fit vs in-memory fused",
            "",
            f"comparison  n={n_mid}  ({SLOW_N_CLUSTERS} clusters x "
            f"{PER_CLUSTER}, theta {THETA}, budget {MEMORY_BUDGET >> 20} MiB)",
            *format_rows(comparison),
            "",
            f"reach       n={n_big}  ({BIG_N_CLUSTERS} clusters x "
            f"{PER_CLUSTER}), hard RLIMIT_AS {BUDGET_MB} MiB",
            *format_rows(reach),
            "",
            f"sharded:1 recovered all {BIG_N_CLUSTERS} clusters in "
            f"{sharded_big['seconds_total']:.1f}s at "
            f"{sharded_big['peak_rss'] / 1024**2:.0f} MB peak where the "
            "fused path is infeasible",
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "shard_fit",
        RunManifest.from_tracer(
            "bench_shard_fit_scale", tracer,
            config={
                "n_mid": n_mid,
                "n_big": n_big,
                "theta": THETA,
                "memory_budget_mb": MEMORY_BUDGET >> 20,
                "rlimit_as_mb": BUDGET_MB,
            },
        ),
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--n-clusters", type=int, required=True)
    parser.add_argument("--budget-mb", type=int, default=None)
    args = parser.parse_args()
    print(
        json.dumps(
            run_variant(
                args.variant, args.data, args.n_clusters, args.budget_mb
            )
        )
    )
