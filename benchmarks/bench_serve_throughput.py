"""S1 -- serving throughput: labeler loop vs vectorized engine.

The §4.6 labeling scan is the serve-time hot path: once a sample is
clustered, every remaining (or future) point flows through per-point
assignment.  This bench fits one model on a small sample, then labels
n ∈ {10k, 100k} synthetic market-basket points two ways:

* ``labeler`` -- the sequential :class:`ClusterLabeler` loop (one
  Python-level matvec per point);
* ``engine`` -- :class:`AssignmentEngine` batches through its index.

The acceptance bar is engine >= 5x labeler throughput at n=100k; in
practice the batch path lands one to two orders of magnitude ahead.
The registry snapshot (the fit's ``fit.*`` and the engine runs'
``serve.*`` metrics) is appended to the saved table.

``test_assign_tiers`` is the backend-tier comparison and the sweep
behind :data:`repro.serve.index.DENSE_POSTING_SHARE`.  Its rows are two
families of models: deployment-shaped ``tier_model`` models (600 or
more representatives, thousands of vocabulary items down to dense
40-item pools, queried in batches of 256) and fit-shaped models fitted
on Table 5 generator baskets from one to eight renamed-apart
vocabularies (queried with 8,192 points per call, as the fit's label
scan does).  Every row runs every tier through one engine: ``dense``
and ``pruned`` forced under ``REPRO_NATIVE=0`` by moving the cut,
``auto`` under ``REPRO_NATIVE=0`` with the pinned cut, and ``native``
where the C tier probes.  It asserts label equality everywhere, pruned
> dense throughput on the four original configs, and ``auto`` within
10% of the faster numpy tier on every row -- judged on the passes of
the tier ``auto`` picked, since ``auto`` runs that tier's code and the
separately timed ``auto`` column differs from it only by host noise --
and reports where each
family's pruned/dense ratio crosses 1 (interpolated in log-log between
the rows that straddle it) and the geometric mean of the crossovers,
in two statistics of the index: the posting share the rule uses,
``sum df^2 / (reps * sum df)``, and the pair density ``sum df^2 /
reps^2``, whose two families cross about 2x apart.
``test_assign_tiers_smoke`` is the CI variant: one small model, label
equality only.
"""

import contextlib
import json
import math
import random
import statistics
import time

import numpy as np

import repro.serve.index as index_mod
from benchmarks.baskets import table5_baskets
from benchmarks.machine import machine_summary, native_off
from repro.core.labeling import ClusterLabeler
from repro.data.transactions import Transaction
from repro.eval import format_table
from repro.serve import AssignmentEngine, RockModel
from repro.core.pipeline import RockPipeline
from repro.datasets import small_synthetic_basket

SIZES = (10_000, 100_000)

# (n_clusters, vocab) grid for the tier comparison; every config sits
# past the pruning break-even (>= 100 clusters, >= 1k vocabulary)
TIER_CONFIGS = ((100, 1_000), (100, 4_000), (200, 2_000), (400, 4_000))
# (n_clusters, vocab, items_per_rep): 600-rep models whose pools pack
# ever more representatives onto each item, up to past the crossover
DENSER_CONFIGS = (
    (100, 400, 8), (100, 200, 8), (100, 120, 8), (100, 80, 8),
    (100, 60, 10), (100, 50, 12),
)
# (points fitted, vocabularies): Table 5 models -- a stream refit, the
# paper-basket sample, and mixes of 2-8 renamed-apart vocabularies
FIT_CONFIGS = ((1_000, 1), (2_000, 1), (2_000, 2), (2_000, 3), (2_000, 4),
               (2_000, 6), (2_000, 8))
FIT_QUERIES = 8_192
TIER_POINTS = 8_192
TIER_BATCH = 256
TIER_ROUNDS = 7
AUTO_SLACK = 0.9  # auto keeps at least this share of the faster numpy tier


def _grow_stream(basket, n, seed):
    """n points drawn from the basket's cluster item pools (plus noise),
    mimicking a production stream hitting a frozen model."""
    rng = random.Random(seed)
    members = [
        sorted(txn.items)
        for label, txn in zip(basket.labels, basket.transactions)
        if label >= 0
    ]
    outlier_pool = [f"noise{i}" for i in range(50)]
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(Transaction(rng.sample(outlier_pool, 4)))
        else:
            base = members[rng.randrange(len(members))]
            keep = rng.sample(base, max(2, len(base) - 1))
            points.append(Transaction(keep))
    return points


def test_serve_throughput(benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    basket = small_synthetic_basket(
        n_clusters=4, cluster_size=400, n_outliers=40, seed=11
    )
    pipeline = RockPipeline(
        k=4, theta=0.45, sample_size=400, min_cluster_size=5, seed=3
    )
    tracer = Tracer()
    _, model = pipeline.fit_model(basket.transactions, tracer=tracer)
    labeler: ClusterLabeler = model.labeler()

    rows = []
    rates: dict[tuple[int, str], float] = {}
    # the engines record into the tracer's registry, so the saved
    # manifest carries fit spans and serve counters in one artifact
    for n in SIZES:
        points = _grow_stream(basket, n, seed=n)

        with tracer.span("labeler", n=n):
            start = time.perf_counter()
            # the per-point ClusterLabeler.assign loop, the oracle
            labels_loop = np.array(
                [labeler.assign(p) for p in points], dtype=np.int64
            )
            loop_seconds = time.perf_counter() - start

        engine = AssignmentEngine(model, registry=tracer.registry)
        with tracer.span("engine", n=n):
            start = time.perf_counter()
            labels_engine = engine.assign_batch(points)
            engine_seconds = time.perf_counter() - start

        assert labels_engine.tolist() == labels_loop.tolist()

        for name, seconds in (
            ("labeler", loop_seconds),
            ("engine", engine_seconds),
        ):
            rates[(n, name)] = n / seconds
            rows.append([
                f"{n:,}", name, f"{seconds:.2f}",
                f"{n / seconds:,.0f}",
                f"{loop_seconds / seconds:.1f}x",
            ])

    # the acceptance bar: vectorized engine >= 5x the labeler loop at 100k
    speedup = rates[(100_000, "engine")] / rates[(100_000, "labeler")]
    assert speedup >= 5.0, f"engine only {speedup:.1f}x over labeler loop"

    # record the engine path in pytest-benchmark's stats (one 10k batch)
    points_10k = _grow_stream(basket, 10_000, seed=7)
    bench_engine = AssignmentEngine(model)
    benchmark.pedantic(
        lambda: bench_engine.assign_batch(points_10k), rounds=3, iterations=1
    )

    text = format_table(
        ["n", "path", "seconds", "points/sec", "speedup vs labeler"],
        rows,
        title=f"Serve throughput (model: {model.n_clusters} clusters, "
              f"|L| = {sum(len(li) for li in model.labeling_sets)} reps)",
    )
    text += "\n\nRegistry snapshot (the fit's fit.*, the engines' serve.*):\n"
    text += json.dumps(tracer.registry.snapshot(), indent=2)
    text += "\n\n" + machine_summary()
    save_result("serve_throughput", text)
    save_manifest(
        "serve_throughput",
        RunManifest.from_tracer(
            "bench_serve_throughput", tracer,
            config={
                "sizes": list(SIZES),
                "theta": 0.45,
                "k": 4,
            },
        ),
    )


# -- the backend-tier comparison ---------------------------------------------


def tier_model(n_clusters, vocab, reps_per_cluster=6, items_per_rep=8, seed=0):
    """A deployment-shaped model built directly from synthetic L_i sets.

    Fitting hundreds of clusters is the fit benches' problem; here only
    the *assignment* cost matters, so the labeling sets are drawn
    straight from per-cluster item pools carved out of a ``vocab``-item
    universe (with pool overlap, so candidate sets are non-trivial).
    """
    rng = random.Random(seed)
    universe = list(range(vocab))
    pool_width = max(items_per_rep + 4, vocab // n_clusters)
    labeling_sets = []
    pools = []
    for _ in range(n_clusters):
        pool = rng.sample(universe, pool_width)
        pools.append(pool)
        labeling_sets.append([
            Transaction(rng.sample(pool, items_per_rep))
            for _ in range(reps_per_cluster)
        ])
    model = RockModel(
        labeling_sets=labeling_sets, theta=0.5, f_theta=(1 - 0.5) / (1 + 0.5)
    )
    return model, pools


def tier_points(pools, vocab, n, seed=1):
    """A query stream: cluster-shaped points plus 5% out-of-vocab noise."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(
                Transaction(rng.sample(range(vocab, vocab + 64), 5))
            )
        else:
            pool = pools[rng.randrange(len(pools))]
            points.append(Transaction(rng.sample(pool, 6)))
    return points


@contextlib.contextmanager
def forced_tier(tier):
    """Run the block on one tier: ``native`` as probed; ``auto`` under
    ``REPRO_NATIVE=0`` with the pinned cut; ``dense`` / ``pruned`` under
    ``REPRO_NATIVE=0`` with the cut moved to 0 / infinity.  The index
    picks its tier per call, so the calls must run inside the block."""
    if tier == "native":
        yield
        return
    cut = {"auto": index_mod.DENSE_POSTING_SHARE, "dense": 0.0, "pruned": math.inf}
    saved = index_mod.DENSE_POSTING_SHARE
    index_mod.DENSE_POSTING_SHARE = cut[tier]
    try:
        with native_off():
            yield
    finally:
        index_mod.DENSE_POSTING_SHARE = saved


def available_tiers(engine):
    """The tiers to time: the numpy three, plus native where it probes."""
    tiers = ["dense", "pruned", "auto"]
    if engine.assign_backend == "native":
        tiers.append("native")
    return tiers


def time_tiers(engine, points, batch, rounds=TIER_ROUNDS):
    """``(auto's tier, {tier: stats})``: the tiers take turns, one pass
    each per round, so host drift hits them alike; rps is from each
    tier's fastest pass, since noise on a shared host only adds time."""
    tiers = available_tiers(engine)
    walls = {tier: [] for tier in tiers}
    latencies = {tier: [] for tier in tiers}
    labels = {}
    for _ in range(rounds):
        for tier in tiers:
            with forced_tier(tier):
                got = []
                start = time.perf_counter()
                for lo in range(0, len(points), batch):
                    t0 = time.perf_counter()
                    got.append(engine.assign_batch(points[lo : lo + batch]))
                    latencies[tier].append(time.perf_counter() - t0)
                walls[tier].append(time.perf_counter() - start)
            labels[tier] = np.concatenate(got).tolist()
    with forced_tier("auto"):
        picked = engine.assign_backend
    return picked, {
        tier: {
            "labels": labels[tier],
            "rps": len(points) / min(walls[tier]),
            "p50_ms": 1000 * _pctl(latencies[tier], 50),
            "p99_ms": 1000 * _pctl(latencies[tier], 99),
        }
        for tier in tiers
    }


def _pctl(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(sorted(values), n=100)[q - 1]


def crossovers(rows, statistic):
    """Values of ``statistic`` where pruned/dense throughput crosses 1,
    interpolated in log-log between neighbouring rows of one family."""
    points = sorted(
        (math.log(row[statistic]), math.log(row["pruned_vs_dense"]))
        for row in rows
    )
    found = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if (y0 > 0) != (y1 > 0):
            found.append(math.exp(x0 + (x1 - x0) * y0 / (y0 - y1)))
    return found


def pair_density(index):
    """``sum df^2 / reps^2``: the statistic the rule does not use."""
    df = np.diff(index.inv_indptr)
    return float(df @ df) / max(index.n_reps, 1) ** 2


def geometric_mean(values):
    return math.exp(statistics.fmean(map(math.log, values))) if values else None


def tier_shapes():
    """``(family, name, model, points, batch)`` for every sweep row."""
    for n_clusters, vocab in TIER_CONFIGS:
        model, pools = tier_model(n_clusters, vocab)
        yield ("tier", f"{n_clusters}x{vocab}", model,
               tier_points(pools, vocab, TIER_POINTS), TIER_BATCH)
    for n_clusters, vocab, items in DENSER_CONFIGS:
        model, pools = tier_model(n_clusters, vocab, items_per_rep=items)
        yield ("tier", f"{n_clusters}x{vocab}/{items}", model,
               tier_points(pools, vocab, TIER_POINTS), TIER_BATCH)
    for n, vocabularies in FIT_CONFIGS:
        pipeline = RockPipeline(
            k=10 * vocabularies, theta=0.5, seed=1,
            min_cluster_size=10 if n < 2_000 else 20,
        )
        _, model = pipeline.fit_model(table5_baskets(n, vocabularies))
        queries = list(table5_baskets(FIT_QUERIES, vocabularies, seed=7))
        yield ("fit", f"table5 {n}x{vocabularies}", model, queries, FIT_QUERIES)


def test_assign_tiers(benchmark, save_result, save_manifest):
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    rows = []
    results = []
    for family, name, model, points, batch in tier_shapes():
        engine = AssignmentEngine(model)
        index = engine.labeler.assignment_index
        with tracer.span("assign_tiers", shape=name, family=family):
            picked, per_tier = time_tiers(engine, points, batch)
        dense, pruned = per_tier["dense"], per_tier["pruned"]
        for tier, r in per_tier.items():
            # every tier is a pure optimisation, or it is wrong
            assert r["labels"] == dense["labels"], f"{tier} labels diverge at {name}"
        fastest = max(dense["rps"], pruned["rps"])
        row = {
            "family": family, "shape": name, "reps": index.n_reps,
            "vocab": index.vocab_size, "share": index.posting_share,
            "density": pair_density(index),
            "picked": picked, "pruned_vs_dense": pruned["rps"] / dense["rps"],
            "auto_vs_best": per_tier[picked]["rps"] / fastest,
            **{
                f"{tier}_{key}": r[key]
                for tier, r in per_tier.items()
                for key in ("rps", "p50_ms", "p99_ms")
            },
        }
        results.append(row)
        rows.append([
            family, name, f"{index.n_reps:,}", f"{index.vocab_size:,}",
            f"{index.posting_share:.3f}", f"{row['density']:.3f}",
            *(f"{per_tier[t]['rps']:,.0f}" if t in per_tier else "-"
              for t in ("dense", "pruned", "auto", "native")),
            f"{row['pruned_vs_dense']:.2f}x", picked,
            f"{row['auto_vs_best']:.2f}",
        ])
        if (family, name) in {("tier", f"{c}x{v}") for c, v in TIER_CONFIGS}:
            # pruning beats the dense matmul on every original config
            assert pruned["rps"] > dense["rps"], f"pruned lost to dense at {name}"
            if "native" in per_tier:
                assert per_tier["native"]["rps"] > dense["rps"], (
                    f"native lost to dense at {name}"
                )
        # the one no-compiler rule routes every measured shape well
        assert row["auto_vs_best"] >= AUTO_SLACK, (
            f"auto ({picked}) kept {row['auto_vs_best']:.2f} of the faster "
            f"numpy tier at {name} (posting share {index.posting_share:.3f})"
        )

    found = {
        statistic: {
            family: crossovers(
                [r for r in results if r["family"] == family], statistic
            )
            for family in ("tier", "fit")
        }
        for statistic in ("share", "density")
    }
    geomeans = {
        statistic: geometric_mean([c for cs in families.values() for c in cs])
        for statistic, families in found.items()
    }

    # pytest-benchmark stats: the default tier on the largest config
    model, pools = tier_model(*TIER_CONFIGS[-1])
    points = tier_points(pools, TIER_CONFIGS[-1][1], TIER_POINTS)
    bench_engine = AssignmentEngine(model)
    benchmark.pedantic(
        lambda: bench_engine.assign_batch(points), rounds=3, iterations=1
    )

    text = format_table(
        ["family", "shape", "reps", "vocab", "share", "density", "dense/s",
         "pruned/s", "auto/s", "native/s", "pruned/dense", "auto picks",
         "auto/best"],
        rows,
        title=(
            f"Assignment tiers and the no-compiler cut (points/sec, fastest of "
            f"{TIER_ROUNDS} alternating passes; tier rows {TIER_POINTS:,} "
            f"points in batches of {TIER_BATCH}, fit rows {FIT_QUERIES:,} "
            f"Table 5 points per call; theta=0.5)"
        ),
    )
    text += (
        "\n\nshare = sum df^2 / (reps * sum df), density = sum df^2 / reps^2"
        " (df: the representatives holding an item)"
    )
    for statistic, families in found.items():
        for family, cs in families.items():
            text += f"\n{statistic} crossover(s), {family} rows: " + (
                ", ".join(f"{c:.3f}" for c in cs) if cs else "none in range"
            )
        if geomeans[statistic] is not None:
            text += (
                f"\n{statistic}: geometric mean of the crossovers "
                f"{geomeans[statistic]:.3f}"
            )
    text += f"\npinned DENSE_POSTING_SHARE: {index_mod.DENSE_POSTING_SHARE}"
    if not any("native_rps" in r for r in results):
        text += "\n(native tier unavailable on this machine: not probed)"
    text += "\n\n" + machine_summary()
    save_result("serve_throughput_tiers", text)
    save_manifest(
        "serve_throughput_tiers",
        RunManifest.from_tracer(
            "bench_assign_tiers", tracer,
            config={
                "tier_configs": [list(c) for c in TIER_CONFIGS],
                "denser_configs": [list(c) for c in DENSER_CONFIGS],
                "fit_configs": [list(c) for c in FIT_CONFIGS],
                "points": TIER_POINTS,
                "fit_queries": FIT_QUERIES,
                "batch": TIER_BATCH,
                "rounds": TIER_ROUNDS,
                "crossovers": found,
                "crossover_geomeans": geomeans,
                "dense_posting_share": index_mod.DENSE_POSTING_SHARE,
                "results": results,
            },
        ),
    )


def test_assign_tiers_smoke(save_result):
    """CI-sized: every tier (native where probed) equals dense on a
    small model -- no throughput bars."""
    model, pools = tier_model(20, 200, reps_per_cluster=4, items_per_rep=6)
    points = tier_points(pools, 200, 2_000)
    engine = AssignmentEngine(model)
    picked, per_tier = time_tiers(engine, points, len(points), rounds=1)
    rows = []
    for tier, r in per_tier.items():
        assert r["labels"] == per_tier["dense"]["labels"], f"{tier} diverges from dense"
        rows.append([tier, f"{r['rps']:,.0f}"])
    text = format_table(
        ["tier", "points/sec"], rows,
        title=f"Assign tier smoke (label equality only, 20x200 model; auto picks {picked})",
    )
    save_result("serve_throughput_tiers_smoke", text)
