"""A fit over a ``TransactionStore``: the text-file fit, and its reach.

A store (:mod:`repro.data.store`) is the on-disk item-code CSR of a
transaction database.  Opening one re-checks its checksums and hands
the fit a :class:`~repro.data.transactions.TransactionDataset` over
memory-maps of the CSR, so the fit of Figure 2 runs on it as it runs on
a text file read into memory.  Two questions, against the same files:

* **identity** -- the fit from a store equals the fit from the text
  file it was encoded from: clusters and merge history, in process and
  in fresh processes;
* **reach** -- at n = 120,960 under a hard address-space cap
  (``RLIMIT_AS`` of 600 MiB), the fit from the store completes in a
  fresh process and recovers every planted cluster, with the clusters
  of the text-file fit.  At n = 30,240 the two run uncapped for
  comparison.

Each variant runs in a **fresh subprocess**
(:mod:`benchmarks.store_fit_runner`, which imports only what the fit
needs), so ``ru_maxrss`` is that variant's own high-water mark, and
the cap, set inside the fresh process, binds the whole fit including
imports.
"""

import json
import os
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
from benchmarks.store_fit_runner import (  # noqa: E402
    MEMORY_BUDGET,
    THETA,
    VARIANTS,
)

SMOKE_N_CLUSTERS = 30
MID_N_CLUSTERS = 1260  # x24 points/cluster = 30,240 points
BIG_N_CLUSTERS = 5040  # x24 points/cluster = 120,960 points
PER_CLUSTER = 24
POOL_SIZE = 14
TXN_SIZE = 10
BUDGET_MB = 600  # the hard RLIMIT_AS of the reach case


def make_basket_file(
    path, n_clusters: int, vocab_size: int = 400, seed: int = 0
) -> int:
    """Stream well-separated clustered baskets to ``path``.

    24 size-10 transactions per cluster from a 14-item pool, written a
    chunk at a time.  Cross-cluster pools share about
    ``POOL_SIZE**2 / vocab_size`` items, far below theta = 0.5, so the
    planted clusters are the right answer at every scale.
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


def measure_fresh(
    variant: str, data, n_clusters: int, tracer, budget_mb: int | None = None
) -> dict:
    """Run one variant in a fresh interpreter, under a span of ``tracer``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "benchmarks.store_fit_runner",
        "--variant", variant, "--data", str(data),
        "--n-clusters", str(n_clusters),
    ]
    if budget_mb is not None:
        argv += ["--budget-mb", str(budget_mb)]
    with tracer.span(variant, n_clusters=n_clusters, budget_mb=budget_mb):
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, check=True, cwd=ROOT,
        )
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    row["n"] = n_clusters * PER_CLUSTER
    prefix = f"bench.{variant}.{row['n']}"
    tracer.registry.set_gauge(f"{prefix}.peak_rss", row["peak_rss"])
    if not row["infeasible"]:
        tracer.registry.set_gauge(f"{prefix}.seconds_fit", row["seconds_fit"])
    return row


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'variant':<8} {'n':>8} {'cap_mb':>7} {'load_s':>7} {'fit_s':>7} "
        f"{'clusters':>9} {'peak_rss_mb':>12}  digest",
    ]
    for row in rows:
        cap = "-" if row["budget_mb"] is None else str(row["budget_mb"])
        if row["infeasible"]:
            lines.append(
                f"{row['variant']:<8} {row['n']:>8} {cap:>7} "
                "-- infeasible under the cap (MemoryError) --"
            )
            continue
        lines.append(
            f"{row['variant']:<8} {row['n']:>8} {cap:>7} "
            f"{row['seconds_load']:>7.2f} {row['seconds_fit']:>7.2f} "
            f"{row['clusters']:>9} {row['peak_rss'] / 1024**2:>12.1f}  {row['digest']}"
        )
    return lines


def assert_same_fit(rows: list[dict], n_clusters: int) -> None:
    """Every variant completed, recovered the planted clusters, and
    produced one clustering."""
    assert not any(row["infeasible"] for row in rows), rows
    assert all(row["clusters"] == n_clusters for row in rows), rows
    assert len({row["digest"] for row in rows}) == 1, rows


def test_store_fit_smoke(benchmark, tmp_path, save_result, save_manifest):
    """Small n: the fit from a store equals the fit from its text file."""
    from repro.core import RockPipeline, rock
    from repro.data.io import read_transactions
    from repro.data.store import TransactionStore
    from repro.obs import RunManifest, Tracer

    data = tmp_path / "baskets.txt"
    store_dir = tmp_path / "baskets.store"
    n = make_basket_file(data, SMOKE_N_CLUSTERS)
    text = read_transactions(data)
    store = TransactionStore.from_transactions_file(data, store_dir)
    for budget in (None, 1):  # the dense route, then the one-pass kernels
        expected = rock(text, k=SMOKE_N_CLUSTERS, theta=THETA, memory_budget=budget)
        got = rock(store, k=SMOKE_N_CLUSTERS, theta=THETA, memory_budget=budget)
        assert got.clusters == expected.clusters
        assert [
            (m.left, m.right, float(m.goodness).hex()) for m in got.merges
        ] == [(m.left, m.right, float(m.goodness).hex()) for m in expected.merges]
    pipeline = RockPipeline(k=SMOKE_N_CLUSTERS, theta=THETA, sample_size=300, seed=1)
    np.testing.assert_array_equal(
        pipeline.fit(store).labels, pipeline.fit(text).labels
    )

    tracer = Tracer()
    holder = {}
    benchmark.pedantic(
        lambda: holder.setdefault(
            "rows",
            [
                measure_fresh(variant, source, SMOKE_N_CLUSTERS, tracer)
                for variant, source in zip(VARIANTS, (data, store_dir))
            ],
        ),
        rounds=1,
        iterations=1,
    )
    rows = holder["rows"]
    assert_same_fit(rows, SMOKE_N_CLUSTERS)
    save_result(
        "store_fit_smoke",
        "\n".join([
            "Store fit smoke: the fit from a store equals the text-file fit",
            f"n={n}  theta={THETA}",
            "",
            *format_rows(rows),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "store_fit_smoke",
        RunManifest.from_tracer(
            "bench_store_fit_smoke", tracer, config={"n": n, "theta": THETA},
        ),
    )


@pytest.mark.slow
def test_store_fit_scale(benchmark, tmp_path, save_result, save_manifest):
    """The reach case: n = 120,960 from its store under a 600 MiB cap.

    Text and store fits run in fresh processes; at n = 30,240 uncapped,
    at n = 120,960 under the cap.  Each pair must produce one
    clustering of every planted cluster, and the capped store fit must
    stay under the cap.
    """
    from repro.data.store import TransactionStore
    from repro.obs import RunManifest, Tracer

    files = {}
    for name, n_clusters, vocab in (
        ("mid", MID_N_CLUSTERS, 400),
        # a wider vocabulary at 120k keeps co-occurrence sparse
        ("big", BIG_N_CLUSTERS, 2000),
    ):
        text = tmp_path / f"{name}.txt"
        make_basket_file(text, n_clusters, vocab_size=vocab)
        store_dir = tmp_path / f"{name}.store"
        start = time.perf_counter()
        TransactionStore.from_transactions_file(text, store_dir)
        files[name] = (n_clusters, text, store_dir, time.perf_counter() - start)

    tracer = Tracer()
    holder = {}

    def _suite():
        return {
            name: [
                measure_fresh(
                    variant, source, n_clusters, tracer,
                    budget_mb=BUDGET_MB if name == "big" else None,
                )
                for variant, source in zip(VARIANTS, (text, store_dir))
            ]
            for name, (n_clusters, text, store_dir, _) in files.items()
        }

    benchmark.pedantic(
        lambda: holder.setdefault("suite", _suite()), rounds=1, iterations=1
    )
    suite = holder["suite"]
    for name, rows in suite.items():
        assert_same_fit(rows, files[name][0])
    store_big = suite["big"][1]
    assert store_big["peak_rss"] <= BUDGET_MB << 20

    save_result(
        "store_fit",
        "\n".join([
            "Fit from a TransactionStore against the text-file fit",
            f"(k = planted clusters, theta {THETA}, memory budget "
            f"{MEMORY_BUDGET >> 20} MiB, each row a fresh process; load_s "
            "is reading the text file or opening and verifying the store)",
            "",
            f"comparison  n={MID_N_CLUSTERS * PER_CLUSTER}, uncapped",
            *format_rows(suite["mid"]),
            "",
            f"reach       n={BIG_N_CLUSTERS * PER_CLUSTER}, hard RLIMIT_AS "
            f"{BUDGET_MB} MiB",
            *format_rows(suite["big"]),
            "",
            "store encode (from_transactions_file, outside the rows): "
            + ", ".join(
                f"n={n_clusters * PER_CLUSTER} {seconds:.2f}s"
                for n_clusters, _, _, seconds in files.values()
            ),
            "",
            machine_summary(),
        ]),
    )
    save_manifest(
        "store_fit",
        RunManifest.from_tracer(
            "bench_store_fit_scale", tracer,
            config={
                "n_mid": MID_N_CLUSTERS * PER_CLUSTER,
                "n_big": BIG_N_CLUSTERS * PER_CLUSTER,
                "theta": THETA,
                "memory_budget_mb": MEMORY_BUDGET >> 20,
                "rlimit_as_mb": BUDGET_MB,
            },
        ),
    )

