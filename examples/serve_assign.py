"""Serving: fit once, save a RockModel, assign new points forever.

The §4.6 insight is that clustering and labeling are separable: cluster
a sample once, then any point — today's or next week's — can be
assigned by counting its neighbors in small per-cluster labeling sets.
``repro.serve`` packages that split:

1. ``RockPipeline.fit_model`` clusters and freezes a ``RockModel``;
2. ``model.save`` writes it as plain JSON (no pickle, versioned);
3. ``AssignmentEngine`` loads it back and labels fresh batches on the
   fastest tier this machine has, recording ``serve.*`` metrics into a
   ``MetricsRegistry`` (printed here as the HTTP ``/metrics`` renders
   them).

    python examples/serve_assign.py
"""

import tempfile
from pathlib import Path

from repro import RockPipeline, Transaction
from repro.datasets import small_synthetic_basket
from repro.obs import metrics_to_prometheus
from repro.serve import AssignmentEngine, RockModel


def main() -> None:
    # --- fit day: cluster a sample and freeze the model -----------------
    basket = small_synthetic_basket(
        n_clusters=3, cluster_size=120, n_outliers=12, seed=7
    )
    pipeline = RockPipeline(
        k=3, theta=0.45, sample_size=150, min_cluster_size=5, seed=0
    )
    result, model = pipeline.fit_model(basket.transactions)
    print(f"fit: {result.n_clusters} clusters from "
          f"{len(result.sample_indices)}-point sample; labeling sets "
          f"|L_i| = {[len(li) for li in model.labeling_sets]}")

    model_path = Path(tempfile.mkdtemp()) / "model.json"
    model.save(model_path)
    print(f"saved {model_path.stat().st_size:,}-byte JSON model\n")

    # --- serve day: a different process loads the artifact --------------
    engine = AssignmentEngine(RockModel.load(model_path))
    facts = engine.describe()
    print(f"loaded: {facts['n_clusters']} clusters, "
          f"assign backend {facts['assign_backend']}")

    # single points...
    member = next(
        txn for txn, label in zip(basket.transactions, result.labels)
        if label >= 0
    )
    fresh = Transaction(member.items)  # a re-submitted cluster member
    print(f"assign({sorted(fresh.items)}) -> cluster {engine.assign(fresh)}")
    noise = Transaction(["never", "seen", "items"])
    print(f"assign({sorted(noise.items)}) -> {engine.assign(noise)} (outlier)")

    # ...and whole batches, scored through the labeler's index
    held_out = list(basket.transactions)
    labels = engine.assign_batch(held_out)
    agree = (labels == result.labels).mean()
    print(f"batch of {len(held_out)}: {agree:.0%} agreement with the "
          f"fit-time labels (sampled points were clustered, not labeled)\n")

    # disk-scale streams run through the same engine in fixed-size
    # batches, without materialising the input; order is preserved
    streamed = engine.assign_all(iter(held_out), batch_size=128)
    assert (streamed == labels).all()

    print(metrics_to_prometheus(engine.registry.snapshot()), end="")


if __name__ == "__main__":
    main()
