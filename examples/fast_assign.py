"""Fast assignment: dense matmul vs candidate pruning vs native kernel.

The dense labeling path (``LabelingIndex.assign``) scores every point
against *every* representative with one big indicator matmul.  But a
point can only neighbor representatives it shares an item with, and
real categorical points touch a handful of the vocabulary — so on
deployment-shaped models (hundreds of clusters, thousands of
vocabulary items) almost all of that work scores exact zeros.  The
serving engine therefore scores through an inverted index, on the tier
the ``repro.native`` probe picks — no option forces one:

* ``"native"`` — the prefix-filtered ``assign_block`` kernel (probes
  only each point's rarest items, verifies only the representatives
  that can reach theta), wherever the C tier probes clean;
* ``"pruned"`` — inverted-index candidate gather + sparse scoring in
  scipy/numpy, with no compiler or under ``REPRO_NATIVE=0``.

Both tiers are bit-identical to ``ClusterLabeler.assign`` (the
property tests in ``tests/test_assign_index.py`` prove it); this
example shows the throughput gap against the dense matmul and the
``serve.assign.backend`` gauge that reports which tier a live engine
runs.

    python examples/fast_assign.py
"""

import os
import random
import time

from repro.data.transactions import Transaction
from repro.serve import AssignmentEngine, RockModel, ServeMetrics

N_CLUSTERS = 150
VOCAB = 2_000
N_POINTS = 6_000


def build_model(n_clusters, vocab, reps_per_cluster=6, items_per_rep=8, seed=0):
    """A deployment-shaped model straight from synthetic labeling sets.

    Only assignment cost matters here, so the L_i sets are drawn from
    overlapping per-cluster item pools instead of running a full fit.
    """
    rng = random.Random(seed)
    universe = list(range(vocab))
    pool_width = max(items_per_rep + 4, vocab // n_clusters)
    labeling_sets, pools = [], []
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


def build_points(pools, vocab, n, seed=1):
    """A query stream: cluster-shaped points plus 5% out-of-vocab noise."""
    rng = random.Random(seed)
    noise_pool = list(range(vocab, vocab + 64))
    points = []
    for _ in range(n):
        if rng.random() < 0.05:
            points.append(Transaction(rng.sample(noise_pool, 6)))
        else:
            pool = pools[rng.randrange(len(pools))]
            points.append(Transaction(rng.sample(pool, 6)))
    return points


def main() -> None:
    model, pools = build_model(N_CLUSTERS, VOCAB)
    points = build_points(pools, VOCAB, N_POINTS)
    n_reps = sum(len(li) for li in model.labeling_sets)
    print(f"model: {model.n_clusters} clusters, {n_reps} representatives, "
          f"{VOCAB}-item vocabulary; stream of {len(points):,} points\n")

    dense = model.labeler().index
    dense.assign(points[:256])  # warm-up
    start = time.perf_counter()
    reference = dense.assign(points)
    dense_rate = len(points) / (time.perf_counter() - start)
    print(f"{'dense':>6}: {dense_rate:>10,.0f} points/sec  "
          f"(LabelingIndex.assign, every pair scored)")

    # the probe picks the tier: the C tier off, then the default
    engines = []
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        engines.append(AssignmentEngine(model, cache_size=0, metrics=ServeMetrics()))
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved
    default = AssignmentEngine(model, cache_size=0, metrics=ServeMetrics())
    if default.assign_backend == "native":
        engines.append(default)
    else:
        print("repro.native did not probe here -- "
              "comparing dense vs pruned only")

    for engine in engines:
        engine.assign_batch(points[:256])  # warm-up
        start = time.perf_counter()
        labels = engine.assign_batch(points)
        seconds = time.perf_counter() - start
        assert (labels == reference).all(), "tiers must agree bit-for-bit"

        snapshot = engine.metrics.registry.snapshot()
        # pairs scored by the index tier, warm-up included
        candidates = snapshot["counters"]["serve.assign.candidates"]
        active = [
            key.rsplit(".", 1)[1]
            for key, value in snapshot["gauges"].items()
            if key.startswith("serve.assign.backend.") and value
        ]
        rate = len(points) / seconds
        print(f"{engine.assign_backend:>6}: {rate:>10,.0f} points/sec  "
              f"({rate / dense_rate:4.1f}x dense)  gauge={active}  "
              f"scored={candidates:,} pairs")

    outliers = int((reference == -1).sum())
    print(f"\nall tiers agree; {outliers:,} points (every out-of-vocab "
          f"one included) had no theta-neighbor and landed at outlier -1")
    print(f'the default engine runs "{default.assign_backend}" on this machine')


if __name__ == "__main__":
    main()
