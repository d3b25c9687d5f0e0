"""Fast assignment: dense matmul vs candidate pruning vs native kernel.

The dense tier scores every point against *every* representative with
one big indicator matmul.  But a point can only neighbor
representatives it shares an item with, and real categorical points
touch a handful of the vocabulary -- so on deployment-shaped models
(hundreds of clusters, thousands of vocabulary items) almost all of
that work scores exact zeros.  The serving engine scores through an
:class:`~repro.serve.index.AssignmentIndex`, and the index picks the
tier on every call -- no option forces one:

* ``"native"`` -- the prefix-filtered ``assign_block`` kernel (probes
  only each point's rarest items, verifies only the representatives
  that can reach theta), wherever the C tier probes clean;
* otherwise (no compiler, or ``REPRO_NATIVE=0``) ``"pruned"`` --
  inverted-index candidate gather + sparse scoring in scipy/numpy --
  when a query item's postings hold few of the representatives (the
  index's posting share is below ``DENSE_POSTING_SHARE``), else
  ``"dense"``.

Every tier is bit-identical to ``ClusterLabeler.assign`` (the property
tests in ``tests/test_assign_index.py`` prove it).  To show all three
on one model, this example moves the probe and the cut the way those
tests do, and prints the ``serve.assign.backend`` gauge that reports
which tier a live engine runs.

    python examples/fast_assign.py
"""

import contextlib
import math
import os
import random
import time

import repro.serve.index as index_mod
from repro.data.transactions import Transaction
from repro.serve import AssignmentEngine, RockModel

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


@contextlib.contextmanager
def forced_tier(tier):
    """Run the block on one tier: ``native`` as probed; ``numpy`` with
    the C tier off, where the index's own cut picks; ``dense`` or
    ``pruned`` with the C tier off and the cut moved to 0 or infinity."""
    saved_env = os.environ.get("REPRO_NATIVE")
    saved_cut = index_mod.DENSE_POSTING_SHARE
    if tier != "native":
        os.environ["REPRO_NATIVE"] = "0"
        cuts = {"dense": 0.0, "pruned": math.inf}
        index_mod.DENSE_POSTING_SHARE = cuts.get(tier, saved_cut)
    try:
        yield
    finally:
        index_mod.DENSE_POSTING_SHARE = saved_cut
        if saved_env is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = saved_env


def main() -> None:
    model, pools = build_model(N_CLUSTERS, VOCAB)
    points = build_points(pools, VOCAB, N_POINTS)
    n_reps = sum(len(li) for li in model.labeling_sets)
    print(f"model: {model.n_clusters} clusters, {n_reps} representatives, "
          f"{VOCAB}-item vocabulary; stream of {len(points):,} points\n")

    default = AssignmentEngine(model)
    share = default.labeler.assignment_index.posting_share
    with forced_tier("numpy"):
        no_compiler = default.assign_backend
    print(f"posting share {share:.4f} (cut {index_mod.DENSE_POSTING_SHARE}): "
          f"without the C tier this model scores {no_compiler}\n")
    tiers = ["dense", "pruned"]
    if default.assign_backend == "native":
        tiers.append("native")
    else:
        print("repro.native did not probe here -- comparing dense vs pruned only")

    reference = dense_rate = None
    for tier in tiers:
        engine = AssignmentEngine(model)
        with forced_tier(tier):
            engine.assign_batch(points[:256])  # warm-up
            start = time.perf_counter()
            labels = engine.assign_batch(points)
            seconds = time.perf_counter() - start
            active = engine.assign_backend
        if reference is None:
            reference = labels
        assert (labels == reference).all(), "tiers must agree bit-for-bit"

        snapshot = engine.registry.snapshot()
        # pairs scored by the index tier, warm-up included
        candidates = snapshot["counters"]["serve.assign.candidates"]
        rate = len(points) / seconds
        dense_rate = dense_rate or rate
        print(f"{active:>6}: {rate:>10,.0f} points/sec  "
              f"({rate / dense_rate:4.1f}x dense)  scored={candidates:,} pairs")

    gauges = default.registry.snapshot()["gauges"]
    active = [
        key.rsplit(".", 1)[1]
        for key, value in gauges.items()
        if key.startswith("serve.assign.backend.") and value
    ]
    outliers = int((reference == -1).sum())
    print(f"\nall tiers agree; {outliers:,} points (every out-of-vocab "
          f"one included) had no theta-neighbor and landed at outlier -1")
    print(f'the default engine runs "{default.assign_backend}" on this machine '
          f"(gauge={active})")


if __name__ == "__main__":
    main()
